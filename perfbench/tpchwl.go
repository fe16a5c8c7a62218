package main

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/stat"
	"repro/internal/tpch"
)

// tpchWorkload is the paper's complex-object workload: nested
// Customer → Order → LineItem → Part/Supplier objects and a suite of seven
// jobs over them. The flatten job writes the Purchase set that the
// DISTINCT and semi/anti join jobs read. The customers-per-supplier job
// reads a second customer set made from a fixed seed: on it the program
// returns a wrong answer every time (see perSupplier), and a fixed input
// keeps that failure the same share of every run's operations. The jobs and the loader are
// written here against the public API, the way a client of the system
// writes them, rather than called from internal/tpch: its query functions
// hide their Execute and ScanSet calls and its loader fuses BuildPages with
// SendData, and the traced run times each of those calls on its own.
type tpchWorkload struct {
	customers []tpch.GCustomer
	fixed     []tpch.GCustomer // the customers-per-supplier job's input
	promo     []int64          // promoted part IDs: the semi/anti join's right side
	query     []int64          // the top-k Jaccard query's part list

	s        *tpch.Schema
	purchase *object.TypeInfo

	got  tpchOutputs
	want *tpchOutputs
}

// tpchOutputs holds one round's query results as plain Go values.
type tpchOutputs struct {
	perSupplier []supplierPart
	jaccard     []jaccardEntry
	purchases   []purchase
	topVolume   []int64
	distinct    []int64
	semi, anti  []purchase
}

type jaccardEntry struct {
	sim     float64
	custKey int64
}

type purchase struct{ cust, part, sup int64 }

// supplierPart is one part ID in a supplier's per-customer part list.
type supplierPart struct {
	sup, cust string
	part      int64
}

const (
	tpchCustomers = 3000
	tpchTopK      = 10
	tpchPromo     = 20
	tpchQuery     = 15
	tpchPageSize  = 256 << 10

	// The customers-per-supplier job's input does not depend on --seed.
	tpchFixedSeed      = 1
	tpchFixedCustomers = 1000
)

func newTPCHWorkload(seed int64, scale float64) *tpchWorkload {
	p := tpch.Params{Customers: scaled(tpchCustomers, scale), Seed: seed}
	p.Fill()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := rng.Perm(p.NumParts)
	fixed := tpch.Params{Customers: scaled(tpchFixedCustomers, scale), Seed: tpchFixedSeed}
	fixed.Fill()
	w := &tpchWorkload{customers: tpch.Generate(p), fixed: tpch.Generate(fixed)}
	for _, id := range perm[:tpchPromo] {
		w.promo = append(w.promo, int64(id))
	}
	for _, id := range perm[tpchPromo : tpchPromo+tpchQuery] {
		w.query = append(w.query, int64(id))
	}
	return w
}

func (w *tpchWorkload) ops() int        { return 7 }
func (w *tpchWorkload) clone() workload { c := *w; return &c }

// objectsPerRound: customers-per-supplier scans the fixed customers; three
// jobs scan the customers; DISTINCT scans the purchases; the semi and anti
// joins scan the purchases and the promo set.
func (w *tpchWorkload) objectsPerRound() int {
	lineItems := 0
	for i := range w.customers {
		for j := range w.customers[i].Orders {
			lineItems += len(w.customers[i].Orders[j].LineItems)
		}
	}
	return len(w.fixed) + 3*len(w.customers) + lineItems + 2*(lineItems+len(w.promo))
}

func (w *tpchWorkload) load(h *harness) error {
	if err := h.newCluster(cluster.Config{PageSize: tpchPageSize}); err != nil {
		return err
	}
	w.s = tpch.RegisterSchema(h.reg())
	w.purchase = tpch.RegisterPurchase(h.reg())
	if err := h.c.CreateDatabase("db"); err != nil {
		return err
	}
	if err := h.load("db", "customers", "Customer", len(w.customers), func(a *object.Allocator, i int) (object.Ref, error) {
		return buildCustomer(a, w.s, &w.customers[i])
	}); err != nil {
		return err
	}
	if err := h.load("db", "fixed_customers", "Customer", len(w.fixed), func(a *object.Allocator, i int) (object.Ref, error) {
		return buildCustomer(a, w.s, &w.fixed[i])
	}); err != nil {
		return err
	}
	partID := w.s.Part.Field("partID")
	return h.load("db", "promo", "Part", len(w.promo), func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(w.s.Part)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(r, partID, w.promo[i])
		return r, nil
	})
}

// buildCustomer allocates one customer's object graph in place.
func buildCustomer(a *object.Allocator, s *tpch.Schema, g *tpch.GCustomer) (object.Ref, error) {
	cust, err := a.MakeObject(s.Customer)
	if err != nil {
		return object.NilRef, err
	}
	object.SetI64(cust, s.Customer.Field("custkey"), g.CustKey)
	if err := object.SetStrField(a, cust, s.Customer.Field("name"), g.Name); err != nil {
		return object.NilRef, err
	}
	orders, err := object.MakeVector(a, object.KHandle, len(g.Orders))
	if err != nil {
		return object.NilRef, err
	}
	for i := range g.Orders {
		o := &g.Orders[i]
		ord, err := a.MakeObject(s.Order)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(ord, s.Order.Field("orderkey"), o.OrderKey)
		object.SetI64(ord, s.Order.Field("custkey"), o.CustKey)
		items, err := object.MakeVector(a, object.KHandle, len(o.LineItems))
		if err != nil {
			return object.NilRef, err
		}
		for j := range o.LineItems {
			li, err := buildLineItem(a, s, &o.LineItems[j])
			if err == nil {
				err = items.PushBackHandle(a, li)
			}
			if err != nil {
				return object.NilRef, err
			}
		}
		if err := object.SetHandleField(a, ord, s.Order.Field("lineItems"), items.Ref); err != nil {
			return object.NilRef, err
		}
		if err := orders.PushBackHandle(a, ord); err != nil {
			return object.NilRef, err
		}
	}
	return cust, object.SetHandleField(a, cust, s.Customer.Field("orders"), orders.Ref)
}

func buildLineItem(a *object.Allocator, s *tpch.Schema, g *tpch.GLineitem) (object.Ref, error) {
	li, err := a.MakeObject(s.Lineitem)
	if err != nil {
		return object.NilRef, err
	}
	object.SetI64(li, s.Lineitem.Field("orderKey"), g.OrderKey)
	object.SetI64(li, s.Lineitem.Field("lineNumber"), g.LineNumber)
	sup, err := a.MakeObject(s.Supplier)
	if err != nil {
		return object.NilRef, err
	}
	object.SetI64(sup, s.Supplier.Field("supkey"), g.Supplier.SupKey)
	if err := object.SetStrField(a, sup, s.Supplier.Field("name"), g.Supplier.Name); err != nil {
		return object.NilRef, err
	}
	if err := object.SetHandleField(a, li, s.Lineitem.Field("supplier"), sup); err != nil {
		return object.NilRef, err
	}
	part, err := a.MakeObject(s.Part)
	if err != nil {
		return object.NilRef, err
	}
	object.SetI64(part, s.Part.Field("partID"), g.Part.PartID)
	if err := object.SetStrField(a, part, s.Part.Field("name"), g.Part.Name); err != nil {
		return object.NilRef, err
	}
	if err := object.SetStrField(a, part, s.Part.Field("mfgr"), g.Part.Mfgr); err != nil {
		return object.NilRef, err
	}
	return li, object.SetHandleField(a, li, s.Lineitem.Field("part"), part)
}

// round runs the seven jobs in order; flatten precedes the jobs that read
// its Purchase set.
func (w *tpchWorkload) round(h *harness) []error {
	w.got = tpchOutputs{}
	errs := []error{w.perSupplier(h), w.topJaccard(h), w.flatten(h), w.topVolume(h), w.distinctParts(h)}
	var err error
	w.got.semi, err = w.promoJoin(h, core.JoinSemi, "q_semi")
	errs = append(errs, err)
	w.got.anti, err = w.promoJoin(h, core.JoinAnti, "q_anti")
	return append(errs, err)
}

func customers() *core.Scan { return core.NewScan("db", "customers", "Customer") }

// perSupplier is the paper's customers-per-supplier query over the fixed
// customers: every customer becomes one SupplierInfo per supplier it
// bought from, holding a map of its name to the part IDs it bought there,
// and an aggregate keyed by supplier name merges the maps. Its Combine
// edits the current map in place. When the aggregation page fills in the
// middle of a Combine, the engine grows the page and runs the whole
// Combine again (engine/agg.go subMerger.update), so the part lists of
// the customers it had already merged are appended twice. On the fixed
// input that happens in every run, and the check reports it as a known
// fault.
func (w *tpchWorkload) perSupplier(h *harness) error {
	s := w.s
	supName, custParts := s.SupplierInfo.Field("supName"), s.SupplierInfo.Field("custParts")
	msel := &core.MultiSelection{
		In: core.NewScan("db", "fixed_customers", "Customer"), ArgType: "Customer",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("toSupplierInfos", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					custName, bySup, _ := s.CustomerParts(args[0].H)
					sups := make([]string, 0, len(bySup))
					for k := range bySup {
						sups = append(sups, k)
					}
					sort.Strings(sups)
					out, err := object.MakeVector(ctx.Alloc, object.KHandle, len(sups))
					if err != nil {
						return object.Value{}, err
					}
					for _, sup := range sups {
						info, err := supplierInfo(ctx.Alloc, s, sup, custName, bySup[sup])
						if err == nil {
							err = out.PushBackHandle(ctx.Alloc, info)
						}
						if err != nil {
							return object.Value{}, err
						}
					}
					return object.HandleValue(out.Ref), nil
				}, lambda.FromSelf(arg))
		},
	}
	agg := &core.Aggregate{
		In: msel, ArgType: "SupplierInfo",
		Key:     func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, "supName") },
		Val:     func(arg *lambda.Arg) lambda.Term { return lambda.FromSelf(arg) },
		KeyKind: object.KString, ValKind: object.KHandle,
		Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists || cur.H.IsNil() {
				return next, nil
			}
			dst := object.AsMap(object.GetHandleField(cur.H, custParts))
			var err error
			object.AsMap(object.GetHandleField(next.H, custParts)).Iterate(func(k, v object.Value) bool {
				if prev, ok := dst.Get(k); ok && !prev.H.IsNil() {
					// The same customer in two partial aggregates:
					// append its part list.
					pv, sv := object.AsVector(prev.H), object.AsVector(v.H)
					for i := 0; i < sv.Len() && err == nil; i++ {
						err = pv.PushBackI64(a, sv.I64At(i))
					}
				} else {
					err = dst.Put(a, k, v)
				}
				return err == nil
			})
			return cur, err
		},
		Finalize: func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
			return object.DeepCopy(a, val.H)
		},
	}
	if err := h.resetSet("db", "q_suppliers", "SupplierInfo"); err != nil {
		return err
	}
	if err := h.execute(core.NewWrite("db", "q_suppliers", agg)); err != nil {
		return err
	}
	return h.scan("db", "q_suppliers", func(r object.Ref) bool {
		sup := object.GetStrField(r, supName)
		object.AsMap(object.GetHandleField(r, custParts)).Iterate(func(k, v object.Value) bool {
			parts := object.AsVector(v.H)
			for i := 0; i < parts.Len(); i++ {
				w.got.perSupplier = append(w.got.perSupplier, supplierPart{sup, k.S, parts.I64At(i)})
			}
			return true
		})
		return true
	})
}

// supplierInfo makes one SupplierInfo: a supplier name and a map from one
// customer's name to the part IDs it bought from that supplier.
func supplierInfo(a *object.Allocator, s *tpch.Schema, sup, cust string, parts []int64) (object.Ref, error) {
	info, err := a.MakeObject(s.SupplierInfo)
	if err != nil {
		return object.NilRef, err
	}
	if err := object.SetStrField(a, info, s.SupplierInfo.Field("supName"), sup); err != nil {
		return object.NilRef, err
	}
	m, err := object.MakeMap(a, object.KString, object.KHandle, 4)
	if err != nil {
		return object.NilRef, err
	}
	v, err := object.MakeVector(a, object.KInt64, len(parts))
	if err != nil {
		return object.NilRef, err
	}
	for _, p := range parts {
		if err := v.PushBackI64(a, p); err != nil {
			return object.NilRef, err
		}
	}
	if err := m.Put(a, object.StringValue(cust), object.HandleValue(v.Ref)); err != nil {
		return object.NilRef, err
	}
	return info, object.SetHandleField(a, info, s.SupplierInfo.Field("custParts"), m.Ref)
}

// topJaccard keeps the k customers whose deduplicated part set is most
// similar to the query list, in one TopKQueue aggregate under key 0.
func (w *tpchWorkload) topJaccard(h *harness) error {
	s := w.s
	query := stat.Dedup(append([]int64(nil), w.query...))
	kF, entriesF := s.TopK.Field("k"), s.TopK.Field("entries")
	write := func(a *object.Allocator, es []jaccardEntry) (object.Ref, error) {
		obj, err := a.MakeObject(s.TopK)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(obj, kF, tpchTopK)
		v, err := object.MakeVector(a, object.KFloat64, 2*len(es))
		if err != nil {
			return object.NilRef, err
		}
		for _, e := range es {
			if err := v.PushBackF64(a, e.sim); err != nil {
				return object.NilRef, err
			}
			if err := v.PushBackF64(a, float64(e.custKey)); err != nil {
				return object.NilRef, err
			}
		}
		return obj, object.SetHandleField(a, obj, entriesF, v.Ref)
	}
	agg := &core.Aggregate{
		In: customers(), ArgType: "Customer",
		Key: func(arg *lambda.Arg) lambda.Term { return lambda.ConstI64(0) },
		Val: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("jaccard", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					_, _, parts := s.CustomerParts(args[0].H)
					e := jaccardEntry{stat.Jaccard(stat.Dedup(parts), query), object.GetI64(args[0].H, s.Customer.Field("custkey"))}
					r, err := write(ctx.Alloc, []jaccardEntry{e})
					return object.HandleValue(r), err
				}, lambda.FromSelf(arg))
		},
		KeyKind: object.KInt64, ValKind: object.KHandle,
		Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists || cur.H.IsNil() {
				return next, nil
			}
			r, err := write(a, topK(append(readTopK(s, cur.H), readTopK(s, next.H)...), tpchTopK))
			return object.HandleValue(r), err
		},
		Finalize: func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
			return object.DeepCopy(a, val.H)
		},
	}
	if err := h.resetSet("db", "q_jaccard", "TopKQueue"); err != nil {
		return err
	}
	if err := h.execute(core.NewWrite("db", "q_jaccard", agg)); err != nil {
		return err
	}
	return h.scan("db", "q_jaccard", func(r object.Ref) bool {
		w.got.jaccard = topK(append(w.got.jaccard, readTopK(s, r)...), tpchTopK)
		return true
	})
}

func readTopK(s *tpch.Schema, r object.Ref) []jaccardEntry {
	v := object.AsVector(object.GetHandleField(r, s.TopK.Field("entries")))
	out := make([]jaccardEntry, 0, v.Len()/2)
	for i := 0; i+1 < v.Len(); i += 2 {
		out = append(out, jaccardEntry{v.F64At(i), int64(v.F64At(i + 1))})
	}
	return out
}

// topK orders entries by (similarity desc, custkey asc) and keeps k.
func topK(es []jaccardEntry, k int) []jaccardEntry {
	sort.Slice(es, func(i, j int) bool {
		if es[i].sim != es[j].sim {
			return es[i].sim > es[j].sim
		}
		return es[i].custKey < es[j].custKey
	})
	return es[:min(k, len(es))]
}

// flatten explodes every customer into one Purchase row per line item.
func (w *tpchWorkload) flatten(h *harness) error {
	s, pt := w.s, w.purchase
	custKey, orders := s.Customer.Field("custkey"), s.Customer.Field("orders")
	lineItems, supF, partF := s.Order.Field("lineItems"), s.Lineitem.Field("supplier"), s.Lineitem.Field("part")
	msel := &core.MultiSelection{
		In: customers(), ArgType: "Customer",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("toPurchases", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					cust := args[0].H
					out, err := object.MakeVector(ctx.Alloc, object.KHandle, 8)
					if err != nil {
						return object.Value{}, err
					}
					ords := object.AsVector(object.GetHandleField(cust, orders))
					for i := 0; i < ords.Len(); i++ {
						items := object.AsVector(object.GetHandleField(ords.HandleAt(i), lineItems))
						for j := 0; j < items.Len(); j++ {
							li := items.HandleAt(j)
							row, err := makePurchase(ctx.Alloc, pt, purchase{
								cust: object.GetI64(cust, custKey),
								part: object.GetI64(object.GetHandleField(li, partF), s.Part.Field("partID")),
								sup:  object.GetI64(object.GetHandleField(li, supF), s.Supplier.Field("supkey")),
							})
							if err == nil {
								err = out.PushBackHandle(ctx.Alloc, row)
							}
							if err != nil {
								return object.Value{}, err
							}
						}
					}
					return object.HandleValue(out.Ref), nil
				}, lambda.FromSelf(arg))
		},
	}
	if err := h.resetSet("db", "purchases", "Purchase"); err != nil {
		return err
	}
	if err := h.execute(core.NewWrite("db", "purchases", msel)); err != nil {
		return err
	}
	return h.scan("db", "purchases", func(r object.Ref) bool {
		w.got.purchases = append(w.got.purchases, readPurchase(pt, r))
		return true
	})
}

func makePurchase(a *object.Allocator, pt *object.TypeInfo, p purchase) (object.Ref, error) {
	r, err := a.MakeObject(pt)
	if err != nil {
		return object.NilRef, err
	}
	object.SetI64(r, pt.Field("custkey"), p.cust)
	object.SetI64(r, pt.Field("partID"), p.part)
	object.SetI64(r, pt.Field("supkey"), p.sup)
	return r, nil
}

func readPurchase(pt *object.TypeInfo, r object.Ref) purchase {
	return purchase{
		object.GetI64(r, pt.Field("custkey")),
		object.GetI64(r, pt.Field("partID")),
		object.GetI64(r, pt.Field("supkey")),
	}
}

// topVolume is ORDER BY (line items desc, custkey asc) LIMIT k over the
// customers: the top-k path of the sort operator.
func (w *tpchWorkload) topVolume(h *harness) error {
	s := w.s
	ob := &core.OrderBy{
		In: customers(), ArgType: "Customer",
		Keys: []core.SortKey{
			{Term: func(e *lambda.Arg) lambda.Term {
				return lambda.FromNative("custVolume", object.KInt64,
					func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
						_, _, all := s.CustomerParts(args[0].H)
						return object.Int64Value(int64(len(all))), nil
					}, lambda.FromSelf(e))
			}, Kind: object.KInt64, Desc: true},
			{Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "custkey") }, Kind: object.KInt64},
		},
		Limit: tpchTopK,
	}
	if err := h.resetSet("db", "q_volume", "Customer"); err != nil {
		return err
	}
	if err := h.execute(core.NewWrite("db", "q_volume", ob)); err != nil {
		return err
	}
	return h.scan("db", "q_volume", func(r object.Ref) bool {
		w.got.topVolume = append(w.got.topVolume, object.GetI64(r, s.Customer.Field("custkey")))
		return true
	})
}

// distinctParts is DISTINCT partID over the flattened purchases.
func (w *tpchWorkload) distinctParts(h *harness) error {
	pt := w.purchase
	d := &core.Distinct{
		In: core.NewScan("db", "purchases", "Purchase"), ArgType: "Purchase",
		Key:     func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "partID") },
		KeyKind: object.KInt64,
		Make: func(a *object.Allocator, key object.Value) (object.Ref, error) {
			return makePurchase(a, pt, purchase{part: key.I})
		},
	}
	if err := h.resetSet("db", "q_distinct", "Purchase"); err != nil {
		return err
	}
	if err := h.execute(core.NewWrite("db", "q_distinct", d)); err != nil {
		return err
	}
	return h.scan("db", "q_distinct", func(r object.Ref) bool {
		w.got.distinct = append(w.got.distinct, object.GetI64(r, pt.Field("partID")))
		return true
	})
}

// promoJoin is the declarative semi or anti join of the purchases with the
// promoted parts on partID.
func (w *tpchWorkload) promoJoin(h *harness, kind core.JoinKind, out string) ([]purchase, error) {
	j := &core.Join{
		In:       []core.Computation{core.NewScan("db", "purchases", "Purchase"), core.NewScan("db", "promo", "Part")},
		ArgTypes: []string{"Purchase", "Part"},
		Kind:     kind,
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.Eq(lambda.FromMember(args[0], "partID"), lambda.FromMember(args[1], "partID"))
		},
	}
	if err := h.resetSet("db", out, "Purchase"); err != nil {
		return nil, err
	}
	if err := h.execute(core.NewWrite("db", out, j)); err != nil {
		return nil, err
	}
	var rows []purchase
	err := h.scan("db", out, func(r object.Ref) bool {
		rows = append(rows, readPurchase(w.purchase, r))
		return true
	})
	return rows, err
}

func (w *tpchWorkload) check() []error {
	if w.want == nil {
		w.want = tpchReference(w.customers, w.fixed, w.promo, w.query)
	}
	return checkTPCH(&w.got, w.want)
}

// tpchReference computes every query's answer directly from the generated
// structs.
func tpchReference(customers, fixed []tpch.GCustomer, promo, query []int64) *tpchOutputs {
	want := &tpchOutputs{perSupplier: perSupplierReference(fixed)}
	inPromo := map[int64]bool{}
	for _, p := range promo {
		inPromo[p] = true
	}
	inQuery := map[int64]bool{}
	for _, q := range query {
		inQuery[q] = true
	}
	parts := map[int64]bool{}
	type volume struct{ n, cust int64 }
	var volumes []volume
	for i := range customers {
		c := &customers[i]
		bought := map[int64]bool{}
		n := int64(0)
		for _, o := range c.Orders {
			for _, li := range o.LineItems {
				n++
				p := purchase{c.CustKey, li.Part.PartID, li.Supplier.SupKey}
				want.purchases = append(want.purchases, p)
				if inPromo[p.part] {
					want.semi = append(want.semi, p)
				} else {
					want.anti = append(want.anti, p)
				}
				parts[p.part] = true
				bought[p.part] = true
			}
		}
		volumes = append(volumes, volume{n, c.CustKey})
		inter := 0
		for p := range bought {
			if inQuery[p] {
				inter++
			}
		}
		sim := 0.0
		if union := len(bought) + len(inQuery) - inter; union > 0 {
			sim = float64(inter) / float64(union)
		}
		want.jaccard = append(want.jaccard, jaccardEntry{sim, c.CustKey})
	}
	want.jaccard = topK(want.jaccard, tpchTopK)
	sort.Slice(volumes, func(i, j int) bool {
		if volumes[i].n != volumes[j].n {
			return volumes[i].n > volumes[j].n
		}
		return volumes[i].cust < volumes[j].cust
	})
	for _, v := range volumes[:min(tpchTopK, len(volumes))] {
		want.topVolume = append(want.topVolume, v.cust)
	}
	for p := range parts {
		want.distinct = append(want.distinct, p)
	}
	canonicalTPCH(want)
	return want
}

// perSupplierReference lists every (supplier, customer, part) of the
// customers' line items: the customers-per-supplier answer, flattened.
func perSupplierReference(customers []tpch.GCustomer) []supplierPart {
	var out []supplierPart
	for i := range customers {
		c := &customers[i]
		for _, o := range c.Orders {
			for _, li := range o.LineItems {
				out = append(out, supplierPart{li.Supplier.Name, c.Name, li.Part.PartID})
			}
		}
	}
	return out
}

// canonicalTPCH orders the unordered outputs so two results compare
// exactly.
func canonicalTPCH(o *tpchOutputs) {
	for _, rows := range [][]purchase{o.purchases, o.semi, o.anti} {
		sort.Slice(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			if a.cust != b.cust {
				return a.cust < b.cust
			}
			if a.part != b.part {
				return a.part < b.part
			}
			return a.sup < b.sup
		})
	}
	sort.Slice(o.distinct, func(i, j int) bool { return o.distinct[i] < o.distinct[j] })
	sort.Slice(o.perSupplier, func(i, j int) bool {
		a, b := o.perSupplier[i], o.perSupplier[j]
		if c := strings.Compare(a.sup, b.sup); c != 0 {
			return c < 0
		}
		if c := strings.Compare(a.cust, b.cust); c != 0 {
			return c < 0
		}
		return a.part < b.part
	})
}

// checkTPCH compares got with want, one slot per job in round order.
func checkTPCH(got, want *tpchOutputs) []error {
	canonicalTPCH(got)
	return []error{
		knownFault(equalSequence("customers per supplier", got.perSupplier, want.perSupplier)),
		equalSequence("top-k Jaccard", got.jaccard, want.jaccard),
		equalSequence("flattened purchases", got.purchases, want.purchases),
		equalSequence("top customers by volume", got.topVolume, want.topVolume),
		equalSequence("distinct parts", got.distinct, want.distinct),
		equalSequence("promo semi join", got.semi, want.semi),
		equalSequence("promo anti join", got.anti, want.anti),
	}
}
