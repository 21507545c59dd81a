package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment is the report's environment line: what the timings depend
// on besides the code.
func environment(o options) string {
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d fanout=%d go=%s statefs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), fanout, runtime.Version(), fsType(o.work))
}

// fsType names the filesystem holding dir, from its statfs magic number.
// Journal fsync latency depends on it: on a memory-backed filesystem an
// fsync returns at once.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cpuSteal reads the host's cumulative steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable): time the hypervisor gave this
// machine's virtual CPUs to someone else, a noise source of every timing.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
