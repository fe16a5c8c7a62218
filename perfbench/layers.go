package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/object"
	"repro/internal/storage"
)

// Two per-layer figures come from driving a layer's public API directly on
// the workload's own data, since the calls that matter run deep inside a
// job where the benchmark cannot time them.

// sortMergeNsPerRow times engine.SortMerger over the sort workload's rows
// in a fixed layout, today's: each worker holds every other input page
// (SendData deals pages round-robin), sorts its rows into one run of
// SortRow pages, and every run page is its own merge lane. The layout is
// built here, not taken from the program, so the figure tracks only the
// merger's own code: a change to how internal/cluster/sort.go groups
// delivered pages into runs leaves it unchanged, and round_p50_ms on the
// sort workload is where such a change shows. It returns the median ns per
// merged row over reps merges.
func sortMergeNsPerRow(rows []pair, pageSize, reps int) (float64, error) {
	reg := object.NewRegistry()
	rec := object.NewStruct("BenchSortRec").
		AddField("grp", object.KInt64).
		AddField("val", object.KInt64).
		MustBuild(reg)
	grpF, valF := rec.Field("grp"), rec.Field("val")
	src, err := object.BuildPages(reg, pageSize, len(rows), func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(rec)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(r, grpF, rows[i].a)
		object.SetI64(r, valF, rows[i].b)
		return r, nil
	})
	if err != nil {
		return 0, err
	}
	type keyed struct {
		key string
		obj object.Ref
	}
	workers := make([][]keyed, 2)
	for pi, p := range src {
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		for i := 0; i < root.Len(); i++ {
			r := root.HandleAt(i)
			key, err := engine.EncodeSortKey([]object.Value{
				object.Int64Value(object.GetI64(r, grpF)), object.Int64Value(object.GetI64(r, valF)),
			}, nil)
			if err != nil {
				return 0, err
			}
			workers[pi%2] = append(workers[pi%2], keyed{key, r})
		}
	}
	ti := engine.SortRowType(reg)
	var lanes [][]*object.Page
	for _, wrows := range workers {
		sort.Slice(wrows, func(i, j int) bool { return wrows[i].key < wrows[j].key })
		var stats engine.Stats
		out, err := engine.NewRunPageSet(reg, pageSize, nil, &stats)
		if err != nil {
			return 0, err
		}
		for _, kr := range wrows {
			if err := engine.AppendSortRow(out, ti, kr.key, kr.obj, object.Value{}); err != nil {
				return 0, err
			}
		}
		for _, p := range out.Pages() {
			lanes = append(lanes, []*object.Page{p})
		}
	}
	perRow := make([]float64, reps)
	for r := range perRow {
		start := time.Now()
		m := engine.NewSortMerger(reg, lanes, 0)
		n, prev := 0, ""
		for {
			key, _, _, ok := m.Next()
			if !ok {
				break
			}
			if key < prev {
				return 0, fmt.Errorf("sort merge: row %d out of order", n)
			}
			prev = key
			n++
		}
		if n != len(rows) {
			return 0, fmt.Errorf("sort merge: merged %d rows, want %d", n, len(rows))
		}
		perRow[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(perRow), nil
}

// spillUsPerPage times storage.SpillPool Spill and Load on the workload's
// own input pages, pages images per pass, and returns the median µs per
// page of reps passes for each direction. The pool lives in the process
// temp directory and Close removes it.
func spillUsPerPage(reg *object.Registry, sample []*object.Page, pages, reps int) (write, read float64, err error) {
	if len(sample) == 0 {
		return 0, 0, fmt.Errorf("spill: no sample pages")
	}
	pool := storage.NewSpillPool("", reg)
	defer pool.Close()
	slots := make([]int, pages)
	writes, reads := make([]float64, reps), make([]float64, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := range slots {
			if slots[i], err = pool.Spill(sample[i%len(sample)]); err != nil {
				return 0, 0, err
			}
		}
		writes[r] = micros(time.Since(start)) / float64(pages)
		start = time.Now()
		for i, slot := range slots {
			p, err := pool.Load(slot)
			if err != nil {
				return 0, 0, err
			}
			if p.Used() != sample[i%len(sample)].Used() {
				return 0, 0, fmt.Errorf("spill: page %d reloaded with %d bytes, wrote %d", i, p.Used(), sample[i%len(sample)].Used())
			}
		}
		reads[r] = micros(time.Since(start)) / float64(pages)
		for _, slot := range slots {
			pool.Free(slot)
		}
	}
	return median(writes), median(reads), nil
}
