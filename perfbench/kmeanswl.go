package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/ml"
	"repro/internal/object"
)

// kmeansWorkload is the paper's ML workload: each round is one k-means
// iteration, a short scan → aggregate job with k keys whose kernel finds
// each point's nearest centroid. Points sit on a 1/256 lattice, so every
// per-cluster sum is exact and the new centroids must match a plain-Go
// Lloyd step bit for bit. The job mirrors ml.KMeansPC.Iterate, written here
// because Iterate hides its Execute and ScanSet calls from the traced run.
type kmeansWorkload struct {
	points [][]float64
	model  [][]float64 // the model the last round started from
	next   [][]float64 // the model the last round produced
	counts []int64     // the last round's per-centroid point counts

	point, centroid *object.TypeInfo
}

const (
	kmeansPoints   = 40000
	kmeansDims     = 10
	kmeansK        = 10
	kmeansPageSize = 256 << 10
)

func newKMeansWorkload(seed int64, scale float64) *kmeansWorkload {
	points, _ := ml.GeneratePoints(rand.New(rand.NewSource(seed)), scaled(kmeansPoints, scale), kmeansDims, kmeansK)
	for _, p := range points {
		for j := range p {
			p[j] = math.Round(p[j]*256) / 256
		}
	}
	w := &kmeansWorkload{points: points}
	for i := 0; i < kmeansK && i < len(points); i++ {
		w.next = append(w.next, append([]float64(nil), points[i]...))
	}
	return w
}

func (w *kmeansWorkload) ops() int             { return 1 }
func (w *kmeansWorkload) clone() workload      { c := *w; return &c }
func (w *kmeansWorkload) objectsPerRound() int { return len(w.points) }

func (w *kmeansWorkload) load(h *harness) error {
	if err := h.newCluster(cluster.Config{PageSize: kmeansPageSize}); err != nil {
		return err
	}
	w.point = object.NewStruct("BenchKMPoint").
		AddField("data", object.KHandle).
		MustBuild(h.reg())
	w.centroid = object.NewStruct("BenchKMCentroid").
		AddField("centroidId", object.KInt64).
		AddField("cnt", object.KInt64).
		AddField("data", object.KHandle).
		MustBuild(h.reg())
	if err := h.c.CreateDatabase("db"); err != nil {
		return err
	}
	dataF := w.point.Field("data")
	return h.load("db", "points", "BenchKMPoint", len(w.points), func(a *object.Allocator, i int) (object.Ref, error) {
		p, err := a.MakeObject(w.point)
		if err != nil {
			return object.NilRef, err
		}
		v, err := object.MakeVector(a, object.KFloat64, len(w.points[i]))
		if err != nil {
			return object.NilRef, err
		}
		if err := v.AppendFloat64s(a, w.points[i]); err != nil {
			return object.NilRef, err
		}
		return p, object.SetHandleField(a, p, dataF, v.Ref)
	})
}

// round runs one iteration from the previous round's model.
func (w *kmeansWorkload) round(h *harness) []error {
	w.model = w.next
	return []error{w.iterate(h)}
}

func (w *kmeansWorkload) iterate(h *harness) error {
	model := w.model
	dataF := w.point.Field("data")
	cntF, cdataF, cidF := w.centroid.Field("cnt"), w.centroid.Field("data"), w.centroid.Field("centroidId")
	agg := &core.Aggregate{
		In:      core.NewScan("db", "points", "BenchKMPoint"),
		ArgType: "BenchKMPoint",
		Key: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("nearest", object.KInt64,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					v := object.AsVector(object.GetHandleField(args[0].H, dataF))
					return object.Int64Value(int64(nearest(model, v.Float64Slice()))), nil
				}, lambda.FromSelf(arg))
		},
		Val:     func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, "data") },
		KeyKind: object.KInt64,
		ValKind: object.KHandle,
		Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists || cur.H.IsNil() {
				if next.H.TypeCode() != object.TCVector {
					return next, nil
				}
				// First point of a cluster: start an accumulator.
				acc, err := a.MakeObject(w.centroid)
				if err != nil {
					return object.Value{}, err
				}
				object.SetI64(acc, cntF, 1)
				src := object.AsVector(next.H)
				sum, err := object.MakeVector(a, object.KFloat64, src.Len())
				if err != nil {
					return object.Value{}, err
				}
				if err := sum.AppendFloat64s(a, src.Float64Slice()); err != nil {
					return object.Value{}, err
				}
				return object.HandleValue(acc), object.SetHandleField(a, acc, cdataF, sum.Ref)
			}
			// Fold a point, or merge another partial accumulator.
			n, add := int64(1), object.AsVector(next.H)
			if next.H.TypeCode() != object.TCVector {
				n, add = object.GetI64(next.H, cntF), object.AsVector(object.GetHandleField(next.H, cdataF))
			}
			object.SetI64(cur.H, cntF, object.GetI64(cur.H, cntF)+n)
			sum := object.AsVector(object.GetHandleField(cur.H, cdataF)).F64Span()
			as := add.F64Span()
			for j, m := 0, sum.Len(); j < m; j++ {
				sum.Add(j, as.At(j))
			}
			return cur, nil
		},
		Finalize: func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
			out, err := a.MakeObject(w.centroid)
			if err != nil {
				return object.NilRef, err
			}
			object.SetI64(out, cidF, key.I)
			n := object.GetI64(val.H, cntF)
			object.SetI64(out, cntF, n)
			sum := object.AsVector(object.GetHandleField(val.H, cdataF))
			mean, err := object.MakeVector(a, object.KFloat64, sum.Len())
			if err != nil {
				return object.NilRef, err
			}
			for j := 0; j < sum.Len(); j++ {
				if err := mean.PushBackF64(a, sum.F64At(j)/float64(n)); err != nil {
					return object.NilRef, err
				}
			}
			return out, object.SetHandleField(a, out, cdataF, mean.Ref)
		},
	}
	if err := h.resetSet("db", "model", "BenchKMCentroid"); err != nil {
		return err
	}
	if err := h.execute(core.NewWrite("db", "model", agg)); err != nil {
		return err
	}
	next := make([][]float64, len(model))
	copy(next, model) // a centroid that lost all its points keeps its place
	w.counts = make([]int64, len(model))
	var bad error
	err := h.scan("db", "model", func(r object.Ref) bool {
		id := object.GetI64(r, cidF)
		if id < 0 || int(id) >= len(model) {
			bad = fmt.Errorf("k-means output has centroid id %d", id)
			return false
		}
		next[id] = object.AsVector(object.GetHandleField(r, cdataF)).Float64Slice()
		w.counts[id] += object.GetI64(r, cntF)
		return true
	})
	if err == nil {
		err = bad
	}
	w.next = next
	return err
}

// nearest returns the index of the centroid closest to x by squared
// Euclidean distance, the lowest index on a tie.
func nearest(model [][]float64, x []float64) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range model {
		d := 0.0
		for j := range c {
			diff := x[j] - c[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// lloyd is the reference: one plain-Go Lloyd step from model.
func lloyd(points, model [][]float64) ([][]float64, []int64) {
	sums := make([][]float64, len(model))
	counts := make([]int64, len(model))
	for i := range sums {
		sums[i] = make([]float64, len(model[i]))
	}
	for _, p := range points {
		c := nearest(model, p)
		counts[c]++
		for j, v := range p {
			sums[c][j] += v
		}
	}
	next := make([][]float64, len(model))
	for i := range next {
		if counts[i] == 0 {
			next[i] = model[i]
			continue
		}
		next[i] = make([]float64, len(sums[i]))
		for j, s := range sums[i] {
			next[i][j] = s / float64(counts[i])
		}
	}
	return next, counts
}

func (w *kmeansWorkload) check() []error {
	return []error{checkKMeans(w.points, w.model, w.next, w.counts)}
}

func checkKMeans(points, model, got [][]float64, counts []int64) error {
	want, wantCounts := lloyd(points, model)
	var total int64
	for i, c := range counts {
		total += c
		if c != wantCounts[i] {
			return fmt.Errorf("k-means: centroid %d has %d points, want %d", i, c, wantCounts[i])
		}
	}
	if total != int64(len(points)) {
		return fmt.Errorf("k-means: counts add up to %d, want %d points", total, len(points))
	}
	if len(got) != len(want) {
		return fmt.Errorf("k-means: %d centroids, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("k-means: centroid %d has %d dims, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("k-means: centroid %d dim %d is %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}
