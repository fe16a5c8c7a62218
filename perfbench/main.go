// Command perfbench is the repository's benchmark: one closed-loop client
// sends one job at a time to an in-process cluster of 2 workers × 1
// executor thread and measures the system end to end (untraced) or layer
// by layer (traced). See README.md for the workloads and metrics.
//
//	go run . --workload sort --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs and the jobs run over them. Inputs are
// generated as plain Go values when the workload is made, before set-up.
type workload interface {
	// load starts a fresh cluster through h and loads the inputs; it is
	// the timed set-up and may run several times.
	load(h *harness) error
	// round runs one round of jobs, reading every job's output back into
	// Go values; it returns one error slot per operation.
	round(h *harness) []error
	// check compares the last round's outputs with a computation made
	// apart from the program; it returns one error slot per operation.
	// A wrong output caused by a known fault in the program is wrapped by
	// knownFault.
	check() []error
	ops() int
	// clone returns a copy sharing the generated inputs, which a
	// throwaway set-up loads without touching the workload's own cluster.
	clone() workload
	// objectsPerRound counts the stored objects one round's jobs read.
	objectsPerRound() int
}

var workloads = map[string]func(seed int64, scale float64) workload{
	"sort":   func(seed int64, scale float64) workload { return newSortWorkload(seed, scale) },
	"tpch":   func(seed int64, scale float64) workload { return newTPCHWorkload(seed, scale) },
	"kmeans": func(seed int64, scale float64) workload { return newKMeansWorkload(seed, scale) },
	"join":   func(seed int64, scale float64) workload { return newJoinWorkload(seed, scale) },
}

// knownFaultError is a wrong output that a known fault in the program
// causes on an input that does not depend on --seed, so it happens in
// every round. The operation counts as failed, but the run stays correct
// and exits 0: the fault shows as a fixed share of failed operations
// until the program is mended.
type knownFaultError struct{ err error }

func (e knownFaultError) Error() string { return "known fault: " + e.err.Error() }
func (e knownFaultError) Unwrap() error { return e.err }

// knownFault marks a check's error, if any, as a known fault.
func knownFault(err error) error {
	if err == nil {
		return nil
	}
	return knownFaultError{err}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    float64
	traceOut string // trace file of a traced run
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: sort, tpch, kmeans or join")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	fs.Float64Var(&o.scale, "scale", 1, "multiplier on the workload's input size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || o.scale <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sort|tpch|kmeans|join, --seconds > 0, --scale > 0, --trace 0|1\n")
		return 2
	}
	o.traced = trace == 1
	o.traceOut = fmt.Sprintf(".bench_build/traces/trace-%s-%d.json", o.workload, o.seed)
	res, err := measure(mk(o.seed, o.scale), o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout, o)
	if !res.correct || res.failed > res.knownFaults {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	correct           bool
	attempted, failed int
	knownFaults       int // failed operations whose wrong output is a known fault
	rounds            int
	metrics           []metric
	notes             []string
}

// setupReps is how many set-ups a run makes. One takes milliseconds, and
// within one process it swings by half as the host's state changes over
// seconds, so setup_s is the median of set-ups spread over the whole run.
const setupReps = 15

// measure runs set-up, one warm-up round and the timed phase. The first
// set-up loads the cluster the rounds use; the other setupReps-1 load a
// throwaway cluster between rounds, evenly over the timed phase, and any
// the phase had no room for run after it.
func measure(wl workload, o options, stderr io.Writer) (*result, error) {
	h := &harness{}
	defer h.closeCluster()
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	res := &result{correct: true}

	setups := make([]float64, 0, setupReps)
	setup := func(wl workload, h *harness) error {
		runtime.GC() // every set-up starts from a collected heap
		h.tr = tr
		if tr != nil {
			tr.round = -1 - len(setups)
		}
		sp := h.tr.begin("setup")
		start := time.Now()
		err := wl.load(h)
		setups = append(setups, time.Since(start).Seconds())
		h.tr.end(sp)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		return nil
	}
	throwawaySetup := func() error {
		th := &harness{}
		err := setup(wl.clone(), th)
		if cerr := th.closeCluster(); err == nil {
			err = cerr
		}
		runtime.GC() // the rounds do not collect the throwaway cluster
		return err
	}
	if err := setup(wl, h); err != nil {
		return nil, err
	}

	// oneRound runs a round, then checks it; only the round is timed.
	oneRound := func(id int, traced bool) (time.Duration, uint64, uint64) {
		h.tr = nil
		if traced {
			h.tr = tr
			tr.round = id
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := h.tr.begin("round")
		start := time.Now()
		errs := wl.round(h)
		d := time.Since(start)
		h.tr.end(sp)
		runtime.ReadMemStats(&after)
		checks := wl.check()
		res.attempted += wl.ops()
		for i := range errs {
			switch {
			case errs[i] != nil:
				res.failed++
				fmt.Fprintf(stderr, "perfbench: round %d operation %d failed: %v\n", id, i, errs[i])
			case errors.As(checks[i], new(knownFaultError)):
				res.failed++
				if res.knownFaults++; res.knownFaults == 1 { // it recurs every round
					fmt.Fprintf(stderr, "perfbench: round %d operation %d: %v\n", id, i, checks[i])
				}
			case checks[i] != nil:
				res.failed++
				res.correct = false
				fmt.Fprintf(stderr, "perfbench: round %d operation %d wrong output: %v\n", id, i, checks[i])
			}
		}
		return d, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}

	oneRound(0, false) // warm-up: fills page pools and lazy state

	h.kernelsFused, h.stages, h.retries = 0, 0, 0
	eng0, ship0 := h.engineStats(), h.shipStats()
	runtime.GC()
	var untraced, traced []time.Duration
	var tracedIDs []int
	var busy time.Duration
	var allocBytes, allocs uint64
	minRounds := 3
	if o.traced {
		minRounds = 4
	}
	phase := time.Now()
	for id := 1; id <= minRounds || time.Since(phase).Seconds() < o.seconds; id++ {
		if len(setups) < setupReps && time.Since(phase).Seconds() >= float64(len(setups))*o.seconds/setupReps {
			if err := throwawaySetup(); err != nil {
				return nil, err
			}
		}
		// A traced run alternates traced and untraced rounds so the two
		// see the same conditions; their difference is the overhead.
		isTraced := o.traced && id%2 == 0
		d, b, n := oneRound(id, isTraced)
		busy += d
		allocBytes += b
		allocs += n
		if isTraced {
			traced = append(traced, d)
			tracedIDs = append(tracedIDs, id)
		} else {
			untraced = append(untraced, d)
		}
	}
	for len(setups) < setupReps {
		if err := throwawaySetup(); err != nil {
			return nil, err
		}
	}
	res.rounds = len(untraced) + len(traced)
	objects := float64(wl.objectsPerRound() * res.rounds)

	if !o.traced {
		res.metrics = []metric{
			{"setup_s", median(setups), "s"},
			{"objects_per_s", objects / busy.Seconds(), "objects/s"},
			{"round_p50_ms", millis(medianDur(untraced)), "ms"},
			{"alloc_bytes_per_object", float64(allocBytes) / objects, "B/object"},
			{"allocs_per_object", float64(allocs) / objects, "allocs/object"},
			{"peak_rss_mb", peakRSSMiB(), "MiB"},
		}
		return res, nil
	}

	rounds := float64(res.rounds)
	eng, ship := h.engineStats(), h.shipStats()
	perRoundMs := func(name string) float64 { return millis(medianDur(tr.perRound(name, tracedIDs))) }
	setupIDs := make([]int, setupReps)
	for i := range setupIDs {
		setupIDs[i] = -1 - i
	}
	perSetupMs := func(name string) float64 { return millis(medianDur(tr.perRound(name, setupIDs))) }
	execSelf := make([]time.Duration, len(tracedIDs))
	for _, name := range []string{"cluster.Execute", "cluster.HashPartitionJoinKind"} {
		for i, d := range tr.perRound(name, tracedIDs) {
			execSelf[i] += d
		}
	}
	for _, name := range []string{"core.Compile", "optimizer.OptimizeWith", "physical.Build"} {
		for i, d := range tr.perRound(name, tracedIDs) {
			execSelf[i] -= d
		}
	}
	runtime.GC() // the direct measurements start from a collected heap
	mergeNs, err := sortMergeNsPerRow(sortInput(o.seed, scaled(sortRows, o.scale)), sortPageSize, 5)
	if err != nil {
		return nil, err
	}
	spillW, spillR, err := spillUsPerPage(h.reg(), h.built, 64, 5)
	if err != nil {
		return nil, err
	}
	res.metrics = []metric{
		{"core.compile_ms", perRoundMs("core.Compile"), "ms"},
		{"optimizer.optimize_ms", perRoundMs("optimizer.OptimizeWith"), "ms"},
		{"optimizer.kernels_fused", float64(h.kernelsFused) / rounds, "count"},
		{"physical.plan_ms", perRoundMs("physical.Build"), "ms"},
		{"physical.stages", float64(h.stages) / rounds, "count"},
		{"cluster.execute_self_ms", millis(medianDur(execSelf)), "ms"},
		{"cluster.retries", float64(h.retries) / rounds, "count"},
		{"object.build_pages_ms", perSetupMs("object.BuildPages"), "ms"},
		{"object.page_bytes_per_object", float64(h.builtBytes) / float64(h.builtObjects), "B/object"},
		{"storage.send_data_ms", perSetupMs("cluster.SendData"), "ms"},
		{"storage.scan_ms", perRoundMs("cluster.ScanSet"), "ms"},
		{"storage.spill_write_us_per_page", spillW, "us/page"},
		{"storage.spill_read_us_per_page", spillR, "us/page"},
		{"engine.rows", float64(eng.Rows-eng0.Rows) / rounds, "count"},
		{"engine.pages_sealed", float64(eng.PagesSealed-eng0.PagesSealed) / rounds, "count"},
		{"engine.hash_probes", float64(eng.HashProbes-eng0.HashProbes) / rounds, "count"},
		{"engine.hash_resizes", float64(eng.HashResizes-eng0.HashResizes) / rounds, "count"},
		{"engine.join_probe_rows", float64(eng.JoinProbeRows-eng0.JoinProbeRows) / rounds, "count"},
		{"engine.sort_merge_ns_per_row", mergeNs, "ns/row"},
		{"exchange.shipped_bytes", float64(ship.bytes-ship0.bytes) / rounds, "B"},
		{"exchange.shipped_pages", float64(ship.pages-ship0.pages) / rounds, "count"},
		{"exchange.max_bytes_in_flight", float64(ship.maxInFlight), "B"},
		{"exchange.max_reorder_pages", float64(ship.maxReorder), "count"},
		{"exchange.checkpoints", float64(ship.checkpoints-ship0.checkpoints) / rounds, "count"},
		{"trace.round_p50_ms", millis(medianDur(traced)), "ms"},
		{"trace.overhead_ms", millis(medianDur(traced) - medianDur(untraced)), "ms"},
	}
	if err := tr.writeChrome(o.traceOut); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.notes = append(res.notes, "trace file: "+o.traceOut,
		fmt.Sprintf("traced rounds: %d, untraced rounds: %d, spans: %d", len(traced), len(untraced), len(tr.spans)))
	return res, nil
}

// print writes the human report, then the JSON result as the last line.
func (r *result) print(w io.Writer, o options) {
	mode := "untraced (end-to-end metrics)"
	if o.traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "perfbench workload=%s mode=%s\n", o.workload, mode)
	fmt.Fprintf(w, "  seed=%d scale=%g seconds=%g setups=%d rounds=%d\n", o.seed, o.scale, o.seconds, setupReps, r.rounds)
	fmt.Fprintf(w, "  cpus=%d gomaxprocs=%d go=%s rev=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision())
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d (known faults %d) correct=%v\n", r.attempted, r.failed, r.knownFaults, r.correct)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	fmt.Fprintln(w, string(b))
}

// revision reports the VCS revision stamped into the binary, when it was
// built inside a git checkout.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status, falling back to the Go runtime's total reservation
// where that file does not exist.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
