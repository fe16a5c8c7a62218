package main

import (
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
)

// joinWorkload joins a large left set with a right set a quarter its size
// on an equality key, three ways per round: an inner and a full outer join
// through the streaming hash-partition join, and a declarative inner join
// that lowers through TCAP. Right keys are unique; left keys are drawn
// from a range shifted past the right's, so both sides have unmatched
// rows for the outer join to null-extend.
type joinWorkload struct {
	left, right []pair // (key, payload); payloads are unique per side

	rec            *object.TypeInfo
	pairT          *object.TypeInfo
	keyF, payloadF *object.Field

	emitted [][]pair // per-worker (left payload, right payload); -1 is null
	got     [3][]pair
	want    *[3][]pair
}

const (
	joinLeft     = 40000
	joinPageSize = 64 << 10
	nullPayload  = -1
)

func newJoinWorkload(seed int64, scale float64) *joinWorkload {
	rng := rand.New(rand.NewSource(seed))
	nl := scaled(joinLeft, scale)
	nr := max(1, nl/4)
	w := &joinWorkload{left: make([]pair, nl), right: make([]pair, nr)}
	for i, k := range rng.Perm(nr) {
		w.right[i] = pair{a: int64(k), b: int64(i)}
	}
	shift := nr / 8
	for i := range w.left {
		w.left[i] = pair{a: int64(shift + rng.Intn(nr)), b: int64(i)}
	}
	return w
}

func (w *joinWorkload) ops() int             { return 3 }
func (w *joinWorkload) clone() workload      { c := *w; return &c }
func (w *joinWorkload) objectsPerRound() int { return 3 * (len(w.left) + len(w.right)) }

func (w *joinWorkload) load(h *harness) error {
	if err := h.newCluster(cluster.Config{PageSize: joinPageSize}); err != nil {
		return err
	}
	w.rec = object.NewStruct("BenchJoinRec").
		AddField("key", object.KInt64).
		AddField("payload", object.KInt64).
		MustBuild(h.reg())
	w.pairT = object.NewStruct("BenchJoinPair").
		AddField("l", object.KInt64).
		AddField("r", object.KInt64).
		MustBuild(h.reg())
	w.keyF, w.payloadF = w.rec.Field("key"), w.rec.Field("payload")
	if err := h.c.CreateDatabase("db"); err != nil {
		return err
	}
	for _, side := range []struct {
		set  string
		rows []pair
	}{{"left", w.left}, {"right", w.right}} {
		rows := side.rows
		if err := h.load("db", side.set, "BenchJoinRec", len(rows), func(a *object.Allocator, i int) (object.Ref, error) {
			r, err := a.MakeObject(w.rec)
			if err != nil {
				return object.NilRef, err
			}
			object.SetI64(r, w.keyF, rows[i].a)
			object.SetI64(r, w.payloadF, rows[i].b)
			return r, nil
		}); err != nil {
			return err
		}
	}
	w.emitted = make([][]pair, len(h.c.Workers))
	return nil
}

func (w *joinWorkload) round(h *harness) []error {
	return []error{
		w.hashJoin(h, core.JoinInner, 0),
		w.hashJoin(h, core.JoinFull, 1),
		w.declarative(h),
	}
}

// hashJoin runs one side-API join, collecting emitted payload pairs per
// worker (emit is serialized per worker, concurrent across workers).
func (w *joinWorkload) hashJoin(h *harness, kind core.JoinKind, slot int) error {
	for i := range w.emitted {
		w.emitted[i] = w.emitted[i][:0]
	}
	payload := func(r object.Ref) int64 {
		if r.IsNil() {
			return nullPayload
		}
		return object.GetI64(r, w.payloadF)
	}
	err := h.hashJoin(kind, "db", "left", "right",
		func(r object.Ref) uint64 { return object.HashValue(object.Int64Value(object.GetI64(r, w.keyF))) },
		func(l, r object.Ref) bool { return object.GetI64(l, w.keyF) == object.GetI64(r, w.keyF) },
		func(worker int, l, r object.Ref) error {
			w.emitted[worker] = append(w.emitted[worker], pair{payload(l), payload(r)})
			return nil
		})
	w.got[slot] = w.got[slot][:0]
	for _, e := range w.emitted {
		w.got[slot] = append(w.got[slot], e...)
	}
	return err
}

// declarative is pc.Join's inner join projecting each match to a
// (left payload, right payload) object.
func (w *joinWorkload) declarative(h *harness) error {
	lF, rF := w.pairT.Field("l"), w.pairT.Field("r")
	j := &core.Join{
		In:       []core.Computation{core.NewScan("db", "left", "BenchJoinRec"), core.NewScan("db", "right", "BenchJoinRec")},
		ArgTypes: []string{"BenchJoinRec", "BenchJoinRec"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.Eq(lambda.FromMember(args[0], "key"), lambda.FromMember(args[1], "key"))
		},
		Projection: func(args []*lambda.Arg) lambda.Term {
			return lambda.FromNative("payloads", object.KHandle,
				func(ctx *lambda.NativeCtx, vals []object.Value) (object.Value, error) {
					p, err := ctx.Alloc.MakeObject(w.pairT)
					if err != nil {
						return object.Value{}, err
					}
					object.SetI64(p, lF, object.GetI64(vals[0].H, w.payloadF))
					object.SetI64(p, rF, object.GetI64(vals[1].H, w.payloadF))
					return object.HandleValue(p), nil
				}, lambda.FromSelf(args[0]), lambda.FromSelf(args[1]))
		},
	}
	if err := h.resetSet("db", "joined", "BenchJoinPair"); err != nil {
		return err
	}
	if err := h.execute(core.NewWrite("db", "joined", j)); err != nil {
		return err
	}
	w.got[2] = w.got[2][:0]
	return h.scan("db", "joined", func(r object.Ref) bool {
		w.got[2] = append(w.got[2], pair{object.GetI64(r, lF), object.GetI64(r, rF)})
		return true
	})
}

func (w *joinWorkload) check() []error {
	if w.want == nil {
		inner, full := joinReference(w.left, w.right)
		w.want = &[3][]pair{inner, full, inner}
	}
	errs := make([]error, 3)
	for i, what := range []string{"hash-partition inner join", "hash-partition full outer join", "declarative inner join"} {
		got := sortedPairs(w.got[i])
		errs[i] = equalSequence(what, got, w.want[i])
	}
	if errs[1] == nil {
		errs[1] = checkNullExtended(w.got[1], w.left, w.right)
	}
	return errs
}

// joinReference is a Go map join over the generated keys: the inner and
// full outer results as sorted (left payload, right payload) pairs.
func joinReference(left, right []pair) (inner, full []pair) {
	byKey := make(map[int64][]int64, len(right))
	for _, r := range right {
		byKey[r.a] = append(byKey[r.a], r.b)
	}
	matched := map[int64]bool{}
	for _, l := range left {
		rs := byKey[l.a]
		if len(rs) == 0 {
			full = append(full, pair{l.b, nullPayload})
		}
		for _, rp := range rs {
			inner = append(inner, pair{l.b, rp})
			matched[l.a] = true
		}
	}
	full = append(full, inner...)
	for _, r := range right {
		if !matched[r.a] {
			full = append(full, pair{nullPayload, r.b})
		}
	}
	return sortedPairs(inner), sortedPairs(full)
}

// checkNullExtended checks the full outer join's null-extended rows
// against the keys each side left unmatched, apart from the pair lists.
func checkNullExtended(got, left, right []pair) error {
	leftKeys, rightKeys := map[int64]bool{}, map[int64]bool{}
	for _, l := range left {
		leftKeys[l.a] = true
	}
	for _, r := range right {
		rightKeys[r.a] = true
	}
	var wantL, wantR, gotL, gotR []int64
	for _, l := range left {
		if !rightKeys[l.a] {
			wantL = append(wantL, l.b)
		}
	}
	for _, r := range right {
		if !leftKeys[r.a] {
			wantR = append(wantR, r.b)
		}
	}
	for _, p := range got {
		switch {
		case p.b == nullPayload:
			gotL = append(gotL, p.a)
		case p.a == nullPayload:
			gotR = append(gotR, p.b)
		}
	}
	for _, s := range [][]int64{wantL, wantR, gotL, gotR} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	if err := equalSequence("full outer join left-only rows", gotL, wantL); err != nil {
		return err
	}
	return equalSequence("full outer join right-only rows", gotR, wantR)
}
