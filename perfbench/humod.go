package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"humo"
	"humo/internal/serve"
)

// spanHeader carries the client's span id to the in-process server, so the
// handler's time is recorded as a child of the request that caused it.
const spanHeader = "X-Perfbench-Span"

// server is an in-process humod: a serve.Manager behind
// serve.NewObservedHandler on a loopback listener, plus the one HTTP client
// of the closed loop.
type server struct {
	m      *serve.Manager
	dir    string
	srv    *http.Server
	base   string
	client *http.Client
	tr     atomic.Pointer[tracer]
	done   chan struct{}
}

// startServer opens a manager on stateDir and serves it on 127.0.0.1.
func startServer(stateDir string) (*server, error) {
	m, err := serve.Open(serve.Config{StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	s := &server{m: m, dir: stateDir, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h := serve.NewObservedHandler(m, serve.HandlerConfig{})
	s.srv = &http.Server{Handler: s.timed(h)}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return s, nil
}

// timed records the handler time of the answers and next routes as child
// spans of the client span named in spanHeader.
func (s *server) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if tr == nil || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/answers"):
			tr.record("serve.answers_handler", parent, d)
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/next"):
			tr.record("serve.next_handler", parent, d)
		}
	})
}

// do sends one request and decodes a JSON reply into out (when non-nil).
// span is the client span id the handler's span nests under (-1 for none).
func (s *server) do(ctx context.Context, method, path string, body, out any, span int) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	rq, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	if span >= 0 {
		rq.Header.Set(spanHeader, strconv.Itoa(span))
	}
	res, err := s.client.Do(rq)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return 0, err
	}
	if res.StatusCode >= 300 {
		return res.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, res.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return res.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return res.StatusCode, nil
}

// counter reads one counter from GET /metrics.
func (s *server) counter(ctx context.Context, name string) (int64, error) {
	var body struct {
		Counters map[string]int64 `json:"counters"`
	}
	if _, err := s.do(ctx, http.MethodGet, "/metrics", nil, &body, -1); err != nil {
		return 0, err
	}
	return body.Counters[name], nil
}

func (s *server) close() error {
	s.srv.Close()
	<-s.done
	s.client.CloseIdleConnections()
	return s.m.Close()
}

// reference is the final cost and division of a library Session: what a
// served session with the same spec must end with.
type reference struct {
	cost int
	sol  humo.Solution
}

// libraryRun resolves in with a library Session of the given method and
// seed.
func libraryRun(ctx context.Context, in *input, m humo.Method, seed int64) (*reference, error) {
	d, err := drive(ctx, in, m, sessionConfig(m, seed), nil, -1, -1)
	if err != nil {
		return nil, err
	}
	if _, err := d.finish(in); err != nil {
		return nil, err
	}
	return &reference{cost: d.sess.Cost(), sol: d.sess.Solution()}, nil
}

// spec is the serve.Spec of a session equal to sessionConfig(m, seed).
func spec(in *input, m humo.Method, seed int64) serve.Spec {
	pairs := make([]serve.SpecPair, in.w.Len())
	for i := range pairs {
		p := in.w.Pair(i)
		pairs[i] = serve.SpecPair{ID: p.ID, Sim: p.Sim}
	}
	return serve.Spec{
		Method: string(m), Seed: seed, Resolve: true,
		Alpha: req.Alpha, Beta: req.Beta, Theta: req.Theta,
		Pairs: pairs,
	}
}

// checkServed compares a served session's terminal cost and division with
// the library reference.
func checkServed(st serve.Status, ref *reference) string {
	if !st.Done || st.Error != "" || st.Solution == nil {
		return fmt.Sprintf("session %s did not finish cleanly (done=%t error=%q)", st.ID, st.Done, st.Error)
	}
	if st.Cost != ref.cost || st.Solution.Lo != ref.sol.Lo || st.Solution.Hi != ref.sol.Hi {
		return fmt.Sprintf("session %s ended with cost %d DH [%d,%d], the library with cost %d DH [%d,%d]",
			st.ID, st.Cost, st.Solution.Lo, st.Solution.Hi, ref.cost, ref.sol.Lo, ref.sol.Hi)
	}
	return ""
}

// answer is the humod-answer workload: one closed-loop client on loopback
// HTTP resolves hybrid sessions through an in-process server — create, then
// GET next and POST answers until done, then status and delete. The op is
// one POST answers: HTTP, the shard lock, Session.AnswerApplied and the
// fsynced journal append.
type answer struct {
	o        options
	n, pairs int
	ins      []*input
	seeds    []int64
	refs     []*reference
	srv      *server
	calls    int
	damage   bool // tests: the client answers with inverted labels
}

func newAnswer(o options) bench {
	a := &answer{o: o, n: 96, pairs: 10000}
	if o.scale == "tiny" {
		a.n, a.pairs = 2, 4000
	}
	return a
}

func (a *answer) inputs() int { return a.n }

func (a *answer) setup(_ context.Context, seed int64) error {
	for i := 0; i < a.n; i++ {
		s := inputSeed(seed, i)
		in, err := logisticInput(a.pairs, s)
		if err != nil {
			return err
		}
		a.ins = append(a.ins, in)
		a.seeds = append(a.seeds, s)
	}
	dir, err := os.MkdirTemp(a.o.work, "state-")
	if err != nil {
		return err
	}
	a.srv, err = startServer(dir)
	return err
}

// prepare resolves every input with a library Session, the reference each
// served session must end like.
func (a *answer) prepare(ctx context.Context) error {
	for i, in := range a.ins {
		ref, err := libraryRun(ctx, in, humo.MethodHybrid, a.seeds[i])
		if err != nil {
			return err
		}
		a.refs = append(a.refs, ref)
	}
	return nil
}

func (a *answer) resolve(ctx context.Context, i int, tr *tracer) (outcome, error) {
	in := a.ins[i]
	var o outcome
	a.calls++
	id := fmt.Sprintf("a%d-%d", i, a.calls)
	sp := spec(in, humo.MethodHybrid, a.seeds[i])
	a.srv.tr.Store(tr)
	defer a.srv.tr.Store(nil)
	var appends0 int64
	if tr != nil {
		var err error
		if appends0, err = a.srv.counter(ctx, "journal_appends_total"); err != nil {
			return o, err
		}
	}
	journal := filepath.Join(a.srv.dir, id+".journal.jsonl")

	sw := startWatch()
	if _, err := a.srv.do(ctx, http.MethodPost, "/v1/sessions", serve.CreateRequest{ID: id, Spec: sp}, nil, -1); err != nil {
		return o, err
	}
	for {
		root := tr.begin("op", -1)
		var next struct {
			IDs   []int  `json:"ids"`
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		span := tr.begin("http.next", root)
		code, err := a.srv.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/next?wait=30s", nil, &next, span)
		tr.end(span)
		if err != nil {
			return o, err
		}
		if code == http.StatusNoContent {
			tr.end(root)
			continue
		}
		if next.Done {
			tr.end(root)
			break
		}
		labels := make(map[string]bool, len(next.IDs))
		for _, pid := range next.IDs {
			labels[strconv.Itoa(pid)] = in.truth[pid] != a.damage
		}
		before := fileSize(journal, tr)
		span = tr.begin("http.answers", root)
		sa := startWatch()
		_, err = a.srv.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/answers", map[string]any{"labels": labels}, nil, span)
		o.ops = append(o.ops, sa.lap())
		tr.end(span)
		tr.end(root)
		if err != nil {
			return o, err
		}
		if grown := fileSize(journal, tr) - before; grown > 0 {
			tr.add("serve.journal_bytes", float64(grown))
		}
	}
	o.busy = sw.lap()
	o.pairs = in.w.Len()

	var st serve.Status
	if _, err := a.srv.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &st, -1); err != nil {
		return o, err
	}
	if _, err := a.srv.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil, -1); err != nil {
		return o, err
	}
	if tr != nil {
		appends1, err := a.srv.counter(ctx, "journal_appends_total")
		if err != nil {
			return o, err
		}
		tr.add("serve.journal_appends", float64(appends1-appends0))
	}
	if msg := checkServed(st, a.refs[i]); msg != "" {
		o.bad = append(o.bad, fmt.Sprintf("input %d: %s", i, msg))
		o.res = []resolution{{}}
		return o, nil
	}
	r, err := in.score(in.solutionLabels(humo.Solution{Lo: st.Solution.Lo, Hi: st.Solution.Hi}), st.Cost)
	if err != nil {
		return o, err
	}
	o.res = []resolution{r}
	return o, nil
}

// fileSize is path's size in the traced half (0 otherwise or if absent).
func fileSize(path string, tr *tracer) int64 {
	if tr == nil {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (a *answer) close() error {
	if a.srv == nil {
		return nil
	}
	return a.srv.close()
}

// recoverBench is the humod-recover workload: serve.Open on a copy of a
// state directory holding partly answered risk and hybrid sessions, until
// every session has surfaced its next batch. It reads back and replays the
// journal humod-answer writes. The op is one Open plus catch-up; the input
// is the directory, and its sessions are the resolutions.
type recoverBench struct {
	o       options
	pairs   int
	methods []humo.Method // one session each
	answer  map[humo.Method]int
	image   string // the crash image every op copies
	lines   int    // journal lines in the image
	ins     []*input
	seeds   []int64
	libs    []*driven // library references, parked at the crash point
	want    [][]int   // the library's next batch per session
	res     []resolution
	calls   int
	damage  bool // tests: drop the last journal line of the op's copy
}

func newRecover(o options) bench {
	r := &recoverBench{o: o, pairs: 10000, answer: map[humo.Method]int{humo.MethodRisk: 50, humo.MethodHybrid: 8}}
	k := 8
	if o.scale == "tiny" {
		r.pairs, k = 4000, 1
		r.answer = map[humo.Method]int{humo.MethodRisk: 10, humo.MethodHybrid: 3}
	}
	// Risk sessions dominate: their replay is most of an Open and its
	// spread across seeds needs many of them to average out.
	for j := 0; j < k; j++ {
		r.methods = append(r.methods, humo.MethodRisk, humo.MethodRisk, humo.MethodRisk, humo.MethodRisk, humo.MethodRisk, humo.MethodHybrid)
	}
	return r
}

func (r *recoverBench) inputs() int { return 1 }

func sessionID(j int) string { return fmt.Sprintf("s%02d", j) }

func (r *recoverBench) setup(_ context.Context, seed int64) error {
	for j := range r.methods {
		s := inputSeed(seed, j)
		in, err := logisticInput(r.pairs, s)
		if err != nil {
			return err
		}
		r.ins, r.seeds = append(r.ins, in), append(r.seeds, s)
	}
	return nil
}

// prepare serves every session through a fixed number of answered batches —
// about a third of a risk resolution, a half of a hybrid one, so each
// replays a fixed amount of search — and copies the state directory while
// the manager is live, as a crash would leave it: the delta journal since
// the last compaction intact. It then drives a library session per served
// one through the same batches and records the batch it asks next.
func (r *recoverBench) prepare(ctx context.Context) error {
	src, err := os.MkdirTemp(r.o.work, "build-")
	if err != nil {
		return err
	}
	m, err := serve.Open(serve.Config{StateDir: src})
	if err != nil {
		return err
	}
	defer func() {
		m.Close()
		os.RemoveAll(src)
	}()
	for j, meth := range r.methods {
		in := r.ins[j]
		ms, err := m.Create(sessionID(j), spec(in, meth, r.seeds[j]))
		if err != nil {
			return err
		}
		for k := 0; k < r.answer[meth]; k++ {
			b, err := ms.Next(ctx)
			if err != nil {
				return err
			}
			if b.Empty() {
				break // a short resolution: the image holds it finished
			}
			ans, _ := in.truth.LabelBatch(ctx, b.IDs)
			if err := ms.Answer(ans); err != nil {
				return err
			}
		}
	}
	r.image = src + "-image"
	if r.lines, err = copyDir(src, r.image); err != nil {
		return err
	}
	for j, meth := range r.methods {
		d, err := drive(ctx, r.ins[j], meth, sessionConfig(meth, r.seeds[j]), nil, -1, r.answer[meth])
		if err != nil {
			return err
		}
		r.libs = append(r.libs, d)
		b, err := d.sess.Next(ctx)
		if err != nil {
			return err
		}
		r.want = append(r.want, b.IDs)
	}
	return nil
}

func (r *recoverBench) resolve(ctx context.Context, _ int, tr *tracer) (outcome, error) {
	var o outcome
	r.calls++
	dir := filepath.Join(r.o.work, fmt.Sprintf("op-%d", r.calls))
	if _, err := copyDir(r.image, dir); err != nil {
		return o, err
	}
	defer os.RemoveAll(dir)
	if r.damage {
		if err := dropLastJournalLine(dir); err != nil {
			return o, err
		}
	}

	sw := startWatch()
	root := tr.begin("op", -1)
	sp := tr.begin("serve.open", root)
	m, err := serve.Open(serve.Config{StateDir: dir})
	tr.end(sp)
	if err != nil {
		return o, err
	}
	defer m.Close()
	catch := tr.begin("serve.catchup", root)
	firsts := make([][]int, len(r.methods))
	sessions := make([]*serve.ManagedSession, len(r.methods))
	for j, meth := range r.methods {
		ms, err := m.Get(sessionID(j))
		if err != nil {
			return o, err
		}
		sp := tr.begin(layerNames[meth][0], catch)
		b, err := ms.Next(ctx)
		tr.end(sp)
		if err != nil {
			return o, err
		}
		firsts[j], sessions[j] = b.IDs, ms
	}
	tr.end(catch)
	tr.end(root)
	d := sw.lap()
	o.ops, o.busy = []lap{d}, d
	for _, in := range r.ins {
		o.pairs += in.w.Len()
	}
	tr.add("serve.journal_lines_read", float64(r.lines))
	tr.add("serve.sessions_recovered", float64(m.Metrics().Counter("sessions_recovered_total").Value()))

	for j := range r.methods {
		if !slices.Equal(firsts[j], r.want[j]) {
			o.bad = append(o.bad, fmt.Sprintf("session %s: first recovered batch %v, the library's %v", sessionID(j), head(firsts[j]), head(r.want[j])))
		}
	}
	if r.res == nil {
		res, bad, err := r.finish(ctx, sessions)
		if err != nil {
			return o, err
		}
		r.res = res
		o.bad = append(o.bad, bad...)
		// The finished references are no longer needed; dropping them
		// keeps the retained heap to the inputs and the server.
		r.libs = nil
	}
	o.res = r.res
	return o, nil
}

// finish resolves every recovered session and its library reference to
// termination (untimed) and checks they end alike.
func (r *recoverBench) finish(ctx context.Context, sessions []*serve.ManagedSession) ([]resolution, []string, error) {
	var res []resolution
	var bad []string
	for j, ms := range sessions {
		in := r.ins[j]
		for {
			b, err := ms.Next(ctx)
			if err != nil {
				return nil, nil, err
			}
			if b.Empty() {
				break
			}
			ans, _ := in.truth.LabelBatch(ctx, b.IDs)
			if err := ms.Answer(ans); err != nil {
				return nil, nil, err
			}
		}
		lib := r.libs[j]
		if err := lib.advance(ctx, in, nil, -1, -1); err != nil {
			return nil, nil, err
		}
		ref := &reference{cost: lib.sess.Cost(), sol: lib.sess.Solution()}
		if msg := checkServed(ms.Status(), ref); msg != "" {
			bad = append(bad, msg)
		}
		sess := ms.Session()
		rs, err := in.score(sess.Labels(), sess.Cost())
		if err != nil {
			return nil, nil, err
		}
		res = append(res, rs)
	}
	return res, bad, nil
}

func (r *recoverBench) close() error {
	for _, d := range r.libs {
		d.sess.Cancel()
	}
	if r.image == "" {
		return nil
	}
	return os.RemoveAll(r.image)
}

// copyDir copies the regular files of src into a new dst and returns the
// number of journal lines copied.
func copyDir(src, dst string) (int, error) {
	entries, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	lines := 0
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return 0, err
		}
		if strings.HasSuffix(e.Name(), ".journal.jsonl") {
			lines += bytes.Count(data, []byte{'\n'})
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return 0, err
		}
	}
	return lines, nil
}

// dropLastJournalLine removes the last answered batch from the first
// non-empty journal in dir: a lost acknowledged answer.
func dropLastJournalLine(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal.jsonl"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		data = bytes.TrimSuffix(data, []byte{'\n'})
		if len(data) == 0 {
			continue
		}
		cut := bytes.LastIndexByte(data, '\n') + 1
		return os.WriteFile(p, data[:cut], 0o644)
	}
	return fmt.Errorf("no journal lines in %s", dir)
}

// head abbreviates a batch for a check message.
func head(ids []int) []int {
	if len(ids) > 8 {
		return ids[:8]
	}
	return ids
}
