package main

import (
	"fmt"
	"math/rand"
	"strings"

	"humo"
)

// dsShape sizes one DBLP-Scholar-like table pair.
type dsShape struct {
	entities int     // clean publications (table A)
	dupFrac  float64 // share of entities with noisy copies in table B
	maxDups  int     // copies per duplicated entity, at most
	related  float64 // share of entities with a related, different paper in B
	fillers  int     // unrelated publications in B
}

// dsVocab is the synthetic vocabulary of the generator: topical title
// words (titles draw most words from one topic, so same-topic papers share
// tokens), general title words shared by all topics, author names from
// limited pools (so names collide across papers) and venues with
// abbreviations.
type dsVocab struct {
	topics         [][]string
	general        []string
	first, last    []string
	venues, abbrev []string
}

func newDSVocab() *dsVocab {
	v := &dsVocab{}
	words := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%03d", prefix, i)
		}
		return out
	}
	for t := 0; t < 20; t++ {
		v.topics = append(v.topics, words(fmt.Sprintf("t%02dw", t), 12))
	}
	v.general = words("gen", 66)
	v.first = words("fn", 60)
	v.last = words("ln", 120)
	v.venues = words("venue", 24)
	for _, ven := range v.venues {
		v.abbrev = append(v.abbrev, strings.ToUpper(ven[:1])+ven[5:])
	}
	return v
}

type publication struct {
	topic   int
	title   []string
	authors [][2]string
	venue   int
}

func (v *dsVocab) publication(rng *rand.Rand) publication {
	p := publication{topic: rng.Intn(len(v.topics)), venue: rng.Intn(len(v.venues))}
	p.title = append(sample(rng, v.topics[p.topic], 3+rng.Intn(3)), sample(rng, v.general, 2+rng.Intn(3))...)
	for k := 1 + rng.Intn(4); k > 0; k-- {
		p.authors = append(p.authors, [2]string{v.first[rng.Intn(len(v.first))], v.last[rng.Intn(len(v.last))]})
	}
	return p
}

// related derives a different paper of the same group: half the title
// words, fresh same-topic and general words, half the authors plus one,
// same venue — a hard non-match at medium similarity.
func (v *dsVocab) related(rng *rand.Rand, p publication) publication {
	r := publication{topic: p.topic, venue: p.venue}
	r.title = append(sample(rng, p.title, len(p.title)/2), sample(rng, v.topics[p.topic], 2)...)
	r.title = append(r.title, sample(rng, v.general, 2)...)
	r.authors = append(sample(rng, p.authors, (len(p.authors)+1)/2), [2]string{v.first[rng.Intn(len(v.first))], v.last[rng.Intn(len(v.last))]})
	return r
}

// clean renders a publication as a table A record.
func (v *dsVocab) clean(p publication) []string {
	return []string{strings.Join(p.title, " "), authorList(p.authors, false), v.venues[p.venue]}
}

// noisy renders a publication the way a scraped table B would: dropped,
// abbreviated and swapped title words, author initials and truncated
// author lists, abbreviated venues.
func (v *dsVocab) noisy(rng *rand.Rand, p publication) []string {
	var words []string
	for _, w := range p.title {
		switch {
		case rng.Float64() < 0.16:
		case rng.Float64() < 0.1:
			words = append(words, w[:4]+".")
		default:
			words = append(words, w)
		}
	}
	for i := 0; i+1 < len(words); i++ {
		if rng.Float64() < 0.3/float64(len(words)) {
			words[i], words[i+1] = words[i+1], words[i]
		}
	}
	authors := p.authors
	if rng.Float64() < 0.25 {
		authors = authors[:1+rng.Intn(len(authors))]
	}
	venue := v.venues[p.venue]
	if rng.Float64() < 0.5 {
		venue = v.abbrev[p.venue]
	}
	return []string{strings.Join(words, " "), authorList(authors, rng.Float64() < 0.5), venue}
}

func authorList(authors [][2]string, initials bool) string {
	parts := make([]string, len(authors))
	for i, a := range authors {
		first := a[0]
		if initials {
			first = first[:1] + "."
		}
		parts[i] = first + " " + a[1]
	}
	return strings.Join(parts, " ")
}

func sample[T any](rng *rand.Rand, xs []T, k int) []T {
	idx := rng.Perm(len(xs))[:min(k, len(xs))]
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// dsTables generates a DBLP-Scholar-like table pair (paper §VIII-A): clean
// publications in A; in B their noisy copies, related papers by the same
// authors and same-topic fillers. Records of one real-world publication
// share an EntityID, the ground truth. It follows humo.DSLike's recipe but
// builds only the tables: DSLike also tokenizes, blocks and scores them —
// the very layers ds-pipeline times — which would triple set-up and make
// setup_s move with every generation change.
func dsTables(v *dsVocab, shape dsShape, seed int64) (*humo.Table, *humo.Table) {
	rng := rand.New(rand.NewSource(seed))
	attrs := []string{"title", "authors", "venue"}
	a := &humo.Table{Name: "dblp", Attributes: attrs}
	b := &humo.Table{Name: "scholar", Attributes: attrs}
	add := func(t *humo.Table, entity int, values []string) {
		t.Records = append(t.Records, humo.Record{ID: len(t.Records), EntityID: entity, Values: values})
	}
	pubs := make([]publication, shape.entities)
	for i := range pubs {
		pubs[i] = v.publication(rng)
		add(a, i, v.clean(pubs[i]))
	}
	next := shape.entities
	for i, p := range pubs {
		if rng.Float64() < shape.dupFrac {
			for k := 1 + rng.Intn(shape.maxDups); k > 0; k-- {
				add(b, i, v.noisy(rng, p))
			}
		}
		if rng.Float64() < shape.related {
			add(b, next, v.noisy(rng, v.related(rng, p)))
			next++
		}
	}
	for f := 0; f < shape.fillers; f++ {
		add(b, next, v.noisy(rng, v.publication(rng)))
		next++
	}
	return a, b
}
