package main

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/object"
	"repro/internal/optimizer"
	"repro/internal/physical"
)

// harness is the benchmark's client. Every call a workload makes into the
// system goes through one of its methods, one per public function, so a
// traced round can time each layer from outside without changing the
// program. With tr nil (untraced rounds) the methods are plain calls.
type harness struct {
	c  *cluster.Cluster
	tr *tracer

	// Counters summed from ExecStats and JoinStats over every job run.
	kernelsFused, stages, retries int

	// Set-up accounting: bytes and objects of the pages BuildPages made.
	builtBytes, builtObjects int64
	built                    []*object.Page
}

// newCluster starts the in-process cluster every workload runs on: two
// workers with one executor thread each and the default in-memory
// transport.
func (h *harness) newCluster(cfg cluster.Config) error {
	cfg.Workers, cfg.Threads = 2, 1
	sp := h.tr.begin("cluster.New")
	c, err := cluster.New(cfg)
	h.tr.end(sp)
	h.c = c
	h.builtBytes, h.builtObjects = 0, 0
	return err
}

// closeCluster closes the cluster, if any, and drops it and the pages
// built for it so the garbage collector can reclaim them.
func (h *harness) closeCluster() error {
	if h.c == nil {
		return nil
	}
	err := h.c.Close()
	h.c, h.built = nil, nil
	return err
}

func (h *harness) reg() *object.Registry { return h.c.Catalog.Registry() }

// buildPages builds n objects onto client-side pages of the cluster's page
// size.
func (h *harness) buildPages(n int, fill func(a *object.Allocator, i int) (object.Ref, error)) ([]*object.Page, error) {
	sp := h.tr.begin("object.BuildPages")
	pages, err := object.BuildPages(h.reg(), h.c.Cfg.PageSize, n, fill)
	h.tr.end(sp)
	for _, p := range pages {
		h.builtBytes += int64(p.Used())
	}
	h.builtObjects += int64(n)
	h.built = append(h.built, pages...)
	return pages, err
}

// load creates db.set of typeName and sends n built objects into it.
func (h *harness) load(db, set, typeName string, n int, fill func(a *object.Allocator, i int) (object.Ref, error)) error {
	if err := h.c.CreateSet(db, set, typeName); err != nil {
		return err
	}
	pages, err := h.buildPages(n, fill)
	if err != nil {
		return err
	}
	sp := h.tr.begin("cluster.SendData")
	defer h.tr.end(sp)
	return h.c.SendData(db, set, pages)
}

// resetSet empties an output set left by the previous round.
func (h *harness) resetSet(db, set, typeName string) error {
	if _, err := h.c.Catalog.LookupSet(db, set); err == nil {
		if err := h.c.DropSet(db, set); err != nil {
			return err
		}
	}
	return h.c.CreateSet(db, set, typeName)
}

// execute runs one job. A traced call first times the compile, optimize
// and plan steps standalone on the same graph, since Execute runs them
// internally where they cannot be seen from outside; the per-layer report
// subtracts them from the Execute span to get cluster.execute_self_ms.
func (h *harness) execute(writes ...*core.Write) error {
	job := h.tr.begin("job")
	defer h.tr.end(job)
	if h.tr != nil {
		if err := h.planStandalone(writes); err != nil {
			return err
		}
	}
	sp := h.tr.begin("cluster.Execute")
	st, err := h.c.Execute(writes...)
	h.tr.end(sp)
	if st != nil {
		h.kernelsFused += st.Optimizer.KernelsFused
		h.stages += st.Stages
		h.retries += st.Retries
	}
	return err
}

func (h *harness) planStandalone(writes []*core.Write) error {
	sp := h.tr.begin("core.Compile")
	res, err := core.Compile(writes...)
	h.tr.end(sp)
	if err != nil {
		return err
	}
	sp = h.tr.begin("optimizer.OptimizeWith")
	opt, _, err := optimizer.OptimizeWith(res.Prog, optimizer.Options{NoFuse: h.c.Cfg.NoFusion})
	h.tr.end(sp)
	if err != nil {
		return err
	}
	sp = h.tr.begin("physical.Build")
	_, err = physical.Build(opt)
	h.tr.end(sp)
	return err
}

// hashJoin runs the side-API streaming hash-partition join.
func (h *harness) hashJoin(kind core.JoinKind, db, left, right string,
	key func(object.Ref) uint64, eq func(l, r object.Ref) bool,
	emit func(worker int, l, r object.Ref) error) error {
	sp := h.tr.begin("cluster.HashPartitionJoinKind")
	st, err := h.c.HashPartitionJoinKind(kind, db, left, db, right, key, key, eq, emit)
	h.tr.end(sp)
	if st != nil {
		h.retries += st.Retries
	}
	return err
}

// scan reads a stored set back to the client.
func (h *harness) scan(db, set string, fn func(r object.Ref) bool) error {
	sp := h.tr.begin("cluster.ScanSet")
	defer h.tr.end(sp)
	return h.c.ScanSet(db, set, fn)
}

// engineStats sums the live worker backends' engine counters. Call it only
// between jobs.
func (h *harness) engineStats() engine.Stats {
	var s engine.Stats
	for _, w := range h.c.Workers {
		b := w.Front.Backend()
		s.Merge(&b.Stats)
	}
	return s
}

// shipCounters are the transport's exchange counters; the two maxima are
// high-water marks over the cluster's life.
type shipCounters struct {
	bytes, pages, maxInFlight, maxReorder, checkpoints int64
}

// shipStats snapshots the transport's exchange counters. Call it only
// between jobs.
func (h *harness) shipStats() shipCounters {
	st := h.c.Transport.Stats()
	bytes, pages := st.Counters()
	return shipCounters{
		bytes: bytes, pages: int64(pages),
		maxInFlight: st.MaxBytesInFlight, maxReorder: st.MaxReorderPages,
		checkpoints: st.Checkpoints,
	}
}
