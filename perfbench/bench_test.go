package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// tinyScale shrinks every workload so a whole run takes well under a
// second.
const tinyScale = 0.02

// TestWorkloadsRunAndCheck runs every workload at a tiny size, untraced and
// traced, through the same measurement and report the command uses, and
// checks the result line: every operation succeeded or failed only by a
// known fault, every other output matched its reference, and every metric
// of the mode is present.
func TestWorkloadsRunAndCheck(t *testing.T) {
	endToEnd := []string{"setup_s", "objects_per_s", "round_p50_ms", "alloc_bytes_per_object", "allocs_per_object", "peak_rss_mb"}
	perLayer := []string{
		"core.compile_ms", "optimizer.optimize_ms", "optimizer.kernels_fused", "physical.plan_ms", "physical.stages",
		"cluster.execute_self_ms", "cluster.retries", "object.build_pages_ms", "object.page_bytes_per_object",
		"storage.send_data_ms", "storage.scan_ms", "storage.spill_write_us_per_page", "storage.spill_read_us_per_page",
		"engine.rows", "engine.pages_sealed", "engine.hash_probes", "engine.hash_resizes", "engine.join_probe_rows",
		"engine.sort_merge_ns_per_row", "exchange.shipped_bytes", "exchange.shipped_pages",
		"exchange.max_bytes_in_flight", "exchange.max_reorder_pages", "exchange.checkpoints",
		"trace.round_p50_ms", "trace.overhead_ms",
	}
	t.Setenv("TMPDIR", t.TempDir())
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				o := options{workload: name, seed: 7, seconds: 0.05, traced: trace == "1", scale: tinyScale,
					traceOut: filepath.Join(t.TempDir(), "trace.json")}
				var stdout, stderr bytes.Buffer
				r, err := measure(workloads[name](o.seed, o.scale), o, &stderr)
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				r.print(&stdout, o)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != r.knownFaults || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
					if _, err := os.Stat(o.traceOut); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
			})
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sort", "--trace", "2"},
		{"--workload", "sort", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// faultWorkload's one round has two operations: the first always gives
// the right output, the second the wrong output check says it gives.
type faultWorkload struct{ wrong error }

func (w *faultWorkload) load(h *harness) error    { return h.newCluster(cluster.Config{}) }
func (w *faultWorkload) round(h *harness) []error { return make([]error, 2) }
func (w *faultWorkload) check() []error           { return []error{nil, w.wrong} }
func (w *faultWorkload) ops() int                 { return 2 }
func (w *faultWorkload) clone() workload          { c := *w; return &c }
func (w *faultWorkload) objectsPerRound() int     { return 1 }

// TestKnownFaultCountsFailedButStaysCorrect: a known fault's wrong output
// counts its operation as failed in every round yet leaves the run
// correct, while any other wrong output makes the run incorrect.
func TestKnownFaultCountsFailedButStaysCorrect(t *testing.T) {
	o := options{workload: "fault", seconds: 0.01}
	r, err := measure(&faultWorkload{knownFault(errors.New("off by one"))}, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct || r.failed != r.knownFaults || 2*r.failed != r.attempted {
		t.Errorf("known fault: correct=%v attempted=%d failed=%d known=%d", r.correct, r.attempted, r.failed, r.knownFaults)
	}
	r, err = measure(&faultWorkload{errors.New("off by one")}, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.correct || r.knownFaults != 0 || 2*r.failed != r.attempted {
		t.Errorf("wrong output: correct=%v attempted=%d failed=%d known=%d", r.correct, r.attempted, r.failed, r.knownFaults)
	}
}

// loaded runs one round of a tiny workload so its outputs can be tampered
// with. A known fault is let through: it may or may not show at a tiny
// size.
func loaded[W workload](t *testing.T, w W) W {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	h := &harness{}
	if err := w.load(h); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.c.Close() })
	for i, err := range w.round(h) {
		if err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
	}
	for i, err := range w.check() {
		if err != nil && !errors.As(err, new(knownFaultError)) {
			t.Fatalf("untouched output rejected, operation %d: %v", i, err)
		}
	}
	return w
}

// rejects asserts that check flags operation op, and no other but by a
// known fault, after tamper ran.
func rejects(t *testing.T, what string, check func() []error, op int) {
	t.Helper()
	for i, err := range check() {
		if i != op && errors.As(err, new(knownFaultError)) {
			continue
		}
		if (err != nil) != (i == op) {
			t.Errorf("%s: operation %d check = %v", what, i, err)
		}
	}
}

func TestSortCheckRejectsWrongOutput(t *testing.T) {
	w := loaded(t, newSortWorkload(3, tinyScale))
	w.got[0], w.got[1] = w.got[1], w.got[0]
	rejects(t, "swapped rows", w.check, 0)
	w.got[0], w.got[1] = w.got[1], w.got[0]
	w.got = w.got[:len(w.got)-1]
	rejects(t, "missing row", w.check, 0)
}

func TestKMeansCheckRejectsWrongOutput(t *testing.T) {
	w := loaded(t, newKMeansWorkload(3, tinyScale))
	w.next[0][0] += 1.0 / 1024
	rejects(t, "moved centroid", w.check, 0)
	w.next[0][0] -= 1.0 / 1024
	w.counts[0]++
	w.counts[1]--
	rejects(t, "moved point", w.check, 0)
	w.counts[1]++
	rejects(t, "extra point", w.check, 0)
}

func TestJoinCheckRejectsWrongOutput(t *testing.T) {
	w := loaded(t, newJoinWorkload(3, tinyScale))
	w.got[0] = w.got[0][1:]
	rejects(t, "dropped inner pair", w.check, 0)
	w = loaded(t, newJoinWorkload(3, tinyScale))
	for i, p := range w.got[1] {
		if p.b == nullPayload {
			w.got[1][i].b = 0
			break
		}
	}
	rejects(t, "filled-in null", w.check, 1)
	w = loaded(t, newJoinWorkload(3, tinyScale))
	w.got[2] = append(w.got[2], w.got[2][0])
	rejects(t, "duplicated declarative pair", w.check, 2)

	// The null-extension check stands on its own: a left-only row that
	// claims a right partner fails it even where the pair lists agree.
	left := []pair{{1, 10}, {2, 20}}
	right := []pair{{1, 100}}
	if err := checkNullExtended([]pair{{10, 100}, {20, 100}}, left, right); err == nil {
		t.Error("missing left-only row accepted")
	}
	if err := checkNullExtended([]pair{{10, 100}, {20, nullPayload}}, left, right); err != nil {
		t.Errorf("correct full outer join rejected: %v", err)
	}
}

func TestTPCHCheckRejectsWrongOutput(t *testing.T) {
	tamper := []func(o *tpchOutputs){
		func(o *tpchOutputs) { o.perSupplier = append(o.perSupplier, o.perSupplier[0]) },
		func(o *tpchOutputs) { o.jaccard[0].sim += 0.001 },
		func(o *tpchOutputs) { o.purchases = o.purchases[1:] },
		func(o *tpchOutputs) { o.topVolume[0], o.topVolume[1] = o.topVolume[1], o.topVolume[0] },
		func(o *tpchOutputs) { o.distinct = append(o.distinct, 1<<40) },
		func(o *tpchOutputs) { o.semi = append(o.semi, o.anti[0]) },
		func(o *tpchOutputs) { o.anti[0].sup++ },
	}
	for op, f := range tamper {
		w := loaded(t, newTPCHWorkload(3, tinyScale))
		f(&w.got)
		rejects(t, "tampered tpch output", w.check, op)
	}
}

func TestTraceSelfTimeAndChromeFile(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "cluster.Execute", Start: 10, End: 60, Parent: 0},
		{Name: "cluster.ScanSet", Start: 60, End: 90, Parent: 0},
		{Name: "inner", Start: 20, End: 30, Parent: 1},
	}
	self := tr.selfTimes()
	for i, want := range []time.Duration{20, 40, 30, 10} {
		if self[i] != want {
			t.Errorf("span %d self time %v, want %v", i, self[i], want)
		}
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) != 4 || doc.TraceEvents[1].Ph != "X" {
		t.Errorf("trace file: %v, %d events", err, len(doc.TraceEvents))
	}
}
