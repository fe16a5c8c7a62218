package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
)

// sortWorkload is a distributed total ORDER BY on (grp, val). Each of the
// two producers holds more rows than SortSpillRows, so its sorted runs
// spill, and the small page size makes the single merge consumer receive
// on the order of a hundred run pages.
type sortWorkload struct {
	rows []pair // generated input: (grp, val), val unique
	want []pair // the input sorted by Go's sort
	got  []pair // the last round's output, in storage scan order

	rec        *object.TypeInfo
	grpF, valF *object.Field
}

// pair is one generated row: two int64 columns.
type pair struct{ a, b int64 }

const (
	sortRows      = 20000
	sortGroups    = 499
	sortPageSize  = 16 << 10
	sortSpillRows = 4096
)

func newSortWorkload(seed int64, scale float64) *sortWorkload {
	return &sortWorkload{rows: sortInput(seed, scaled(sortRows, scale))}
}

// sortInput makes n rows with a seeded random group and a unique val (a
// seeded permutation of 0..n-1), so (grp, val) orders the rows totally.
func sortInput(seed int64, n int) []pair {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]pair, n)
	for i, v := range rng.Perm(n) {
		rows[i] = pair{a: int64(rng.Intn(sortGroups)), b: int64(v)}
	}
	return rows
}

func (w *sortWorkload) ops() int             { return 1 }
func (w *sortWorkload) clone() workload      { c := *w; return &c }
func (w *sortWorkload) objectsPerRound() int { return len(w.rows) }

func (w *sortWorkload) load(h *harness) error {
	if err := h.newCluster(cluster.Config{PageSize: sortPageSize, SortSpillRows: sortSpillRows}); err != nil {
		return err
	}
	w.rec = object.NewStruct("BenchSortRec").
		AddField("grp", object.KInt64).
		AddField("val", object.KInt64).
		MustBuild(h.reg())
	w.grpF, w.valF = w.rec.Field("grp"), w.rec.Field("val")
	if err := h.c.CreateDatabase("db"); err != nil {
		return err
	}
	return h.load("db", "rows", "BenchSortRec", len(w.rows), func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(w.rec)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(r, w.grpF, w.rows[i].a)
		object.SetI64(r, w.valF, w.rows[i].b)
		return r, nil
	})
}

// round runs one ORDER BY job and reads its output back in order.
func (w *sortWorkload) round(h *harness) []error {
	return []error{w.orderBy(h)}
}

func (w *sortWorkload) orderBy(h *harness) error {
	if err := h.resetSet("db", "sorted", "BenchSortRec"); err != nil {
		return err
	}
	ob := &core.OrderBy{
		In: core.NewScan("db", "rows", "BenchSortRec"), ArgType: "BenchSortRec",
		Keys: []core.SortKey{
			{Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "grp") }, Kind: object.KInt64},
			{Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "val") }, Kind: object.KInt64},
		},
	}
	if err := h.execute(core.NewWrite("db", "sorted", ob)); err != nil {
		return err
	}
	w.got = w.got[:0]
	return h.scan("db", "sorted", func(r object.Ref) bool {
		w.got = append(w.got, pair{object.GetI64(r, w.grpF), object.GetI64(r, w.valF)})
		return true
	})
}

func (w *sortWorkload) check() []error {
	if w.want == nil {
		w.want = sortedPairs(w.rows)
	}
	return []error{equalSequence("ORDER BY output", w.got, w.want)}
}

// sortedPairs is the reference: the rows ordered by Go's sort.
func sortedPairs(rows []pair) []pair {
	out := append([]pair(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		return out[i].b < out[j].b
	})
	return out
}

// equalSequence reports the first position where got and want differ.
func equalSequence[T comparable](what string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// scaled sizes an input: n times scale, at least 1.
func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}
