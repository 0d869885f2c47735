package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"repro/internal/server"
)

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spec     string
	out      string
	smoke    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: correct is false when any reply carried a
// wrong verdict; attempted and failed count documents.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run generates the workload's inputs and their expected verdicts, then
// measures it end to end or, with o.trace, layer by layer.  Progress and
// the human-readable tables go to out.
func run(o options, out io.Writer) (report, error) {
	w, err := lookup(o.spec, o.workload)
	if err != nil {
		return report{}, err
	}
	if o.smoke {
		w.shrink()
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(o.out, w.name+"-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)

	unplanned, err := w.source()
	if err != nil {
		return report{}, err
	}
	in, err := generate(&w, o.seed, unplanned)
	if err != nil {
		return report{}, err
	}
	printMeta(out, &w, o)
	if o.trace {
		return traced(&w, in, o, dir, out)
	}
	return endToEnd(&w, in, o, dir, out)
}

// warmup is the unmeasured load before each measured phase.
func warmup(o options) time.Duration {
	if o.smoke {
		return 50 * time.Millisecond
	}
	return time.Second
}

// endToEnd sets the stack up w.reps times, keeps the last one, and measures
// the workload on it for o.seconds with tracing off.
func endToEnd(w *workload, in *inputs, o options, dir string, out io.Writer) (report, error) {
	var setups []float64
	var st *stack
	for k := 0; k < w.reps; k++ {
		s, t, err := boot(w, bundlePath(dir, k), &in.docs[0], nil)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, t.total.Seconds())
		if k == w.reps-1 {
			st = s
			break
		}
		if err := s.close(); err != nil {
			return report{}, err
		}
		runtime.GC()
	}
	defer closeStack(st)

	d := newLoadgen(w, in, st, nil)
	d.load(warmup(o))
	runtime.GC()
	base := heapInuse()
	m0, _ := mallocs()
	cpu0 := cpuTime()
	heap := watchHeap(5 * time.Millisecond)
	t := d.load(o.seconds)
	peak := heap.finish()
	cpu1 := cpuTime()
	m1, _ := mallocs()

	done := float64(max(t.attempted-t.failed, 1))
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"docs_per_s":     {done / t.elapsed.Seconds(), "1/s"},
		"latency_p50_us": {us(quantile(t.lat, 0.50)), "us"},
		"cpu_us_per_doc": {us(cpu1-cpu0) / done, "us"},
		"allocs_per_doc": {float64(m1-m0) / done, "count"},
		"heap_peak_mb":   {float64(peak-min(peak, base)) / 1e6, "MB"},
		"ok_ratio":       {float64(t.attempted-t.failed) / float64(max(t.attempted, 1)), "ratio"},
	}
	fmt.Fprintf(out, "end-to-end %s: setup_s is the median of %d set-ups; the latency percentiles are over %d requests\n",
		w.name, len(setups), len(t.lat))
	printMetrics(out, m)
	// The p99 is printed but kept out of the result line: it follows the
	// host's CPU steal during the run more than the program, and its spread
	// between runs of the same code exceeds any usable regression bound.
	fmt.Fprintf(out, "  latency_p99_us = %g us (not in the result line)\n", us(quantile(t.lat, 0.99)))
	fmt.Fprintf(out, "  error_ratio = %g (%d of %d documents failed, %d wrong verdicts)\n",
		float64(t.failed)/float64(max(t.attempted, 1)), t.failed, t.attempted, t.wrong)
	return report{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// traced measures the per-layer metrics.  It sets the stack up once with
// the tracing middleware installed and replays the set-up calls, then runs
// the workload untraced and traced for half of o.seconds each, and ends
// with the GOMAXPROCS=1 station ledger.
func traced(w *workload, in *inputs, o options, dir string, out io.Writer) (report, error) {
	tr := newTracer()
	st, setup, err := boot(w, bundlePath(dir, 0), &in.docs[0], tr.middleware)
	if err != nil {
		return report{}, err
	}
	defer closeStack(st)
	rep, err := openReplica(st.path, w.passes)
	if err != nil {
		return report{}, err
	}
	defer rep.close()

	d := newLoadgen(w, in, st, tr)
	d.load(warmup(o))
	var all tally
	gc0 := readGC()
	untraced := d.load(o.seconds / 2)
	gc1 := readGC()
	all.merge(&untraced)

	firstTraced := tr.ids.Load() + 1
	tr.on.Store(true)
	tracedLoad := d.load(o.seconds / 2)
	loadSpans := summarize(tr.since(firstTraced))
	all.merge(&tracedLoad)

	status, err := fetchStatus(st)
	if err != nil {
		return report{}, err
	}
	lg, err := measureLedger(w, in, d, rep)
	tr.on.Store(false)
	if err != nil {
		return report{}, err
	}
	if err := tr.write(filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))); err != nil {
		return report{}, err
	}

	m := layerMetrics(w, setup, rep, lg, status, loadSpans, &all, untraced, tracedLoad, gc0, gc1)
	fmt.Fprintf(out, "end-to-end %s, untraced half of the traced run: %d requests\n", w.name, len(untraced.lat))
	done := float64(max(untraced.attempted-untraced.failed, 1))
	printMetrics(out, map[string]metric{
		"docs_per_s":     {done / untraced.elapsed.Seconds(), "1/s"},
		"latency_p50_us": {us(quantile(untraced.lat, 0.50)), "us"},
		"latency_p99_us": {us(quantile(untraced.lat, 0.99)), "us"},
	})
	_, pauses := pauseQuantile(gc0, gc1, 0.99)
	waits := 0
	if s := loadSpans[spanBodyWait]; s != nil && !w.batch {
		waits = s.n
	}
	fmt.Fprintf(out, "set-up: source %.3f ms, plan %.3f ms, marshal %.3f ms, write %.3f ms, server.New %.3f ms, first response %.3f ms\n",
		ms(setup.source), ms(setup.plan), ms(setup.marshal), ms(setup.write), ms(setup.boot), ms(setup.first))
	fmt.Fprintf(out, "samples: %d GC pauses in the untraced half; %d queue waits in the traced half\n",
		pauses, waits)
	printSpans(out, fmt.Sprintf("spans of the traced half, %d requests", len(tracedLoad.lat)), loadSpans)
	lg.print(out, w)
	fmt.Fprintf(out, "per-layer %s\n", w.name)
	printMetrics(out, m)
	return report{Correct: all.wrong == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// layerMetrics assembles the per-layer metrics.  A layer the workload does
// not run reports 0.
func layerMetrics(w *workload, setup setupTimes, rep *replica, lg *ledger, status server.Status,
	spans map[string]*spanStats, all *tally, untraced, tracedLoad tally, gc0, gc1 gcStats) map[string]metric {
	perEvent := func(c cost, events float64) float64 {
		if events == 0 {
			return 0
		}
		return c.ns / events
	}
	m := map[string]metric{
		"server.self_us_per_doc":          {lg.single.ns / 1e3, "us"},
		"server.allocs_per_doc":           {lg.single.allocs, "count"},
		"server.resp_bytes_per_doc":       {lg.respBytes, "B"},
		"server.batch_self_us_per_doc":    {0, "us"},
		"server.status_429":               {float64(all.status[http.StatusTooManyRequests]), "count"},
		"net.us_per_doc":                  {lg.net.ns / 1e3, "us"},
		"serve.handoff_us_per_doc":        {lg.serve.ns / 1e3, "us"},
		"serve.queue_wait_p50_us":         {0, "us"},
		"serve.queue_wait_p99_us":         {0, "us"},
		"serve.rejected":                  {float64(status.Rejected), "count"},
		"docstream.ns_per_event":          {0, "ns"},
		"docstream.mb_per_s":              {0, "MB/s"},
		"docstream.allocs_per_doc":        {0, "count"},
		"adapter.xml_ns_per_event":        {lg.xmlNsPerEvent, "ns"},
		"adapter.json_ns_per_event":       {lg.jsonNsPerEvent, "ns"},
		"adapter.allocs_per_event":        {0, "count"},
		"engine.ns_per_event":             {perEvent(lg.run, lg.eventsPerDoc), "ns"},
		"engine.self_ns_per_event":        {perEvent(lg.engine, lg.eventsPerDoc), "ns"},
		"engine.allocs_per_doc":           {lg.run.allocs, "count"},
		"query.dnwa_step_ns_per_event":    {perEvent(lg.dnwa, lg.eventsPerDoc), "ns"},
		"query.product_step_ns_per_event": {perEvent(lg.product, lg.eventsPerDoc), "ns"},
		"query.nnwa_step_ns_per_event":    {perEvent(lg.nnwa, lg.eventsPerDoc), "ns"},
		"plan.plan_ms":                    {ms(setup.plan), "ms"},
		"format.marshal_ms":               {ms(setup.marshal), "ms"},
		"format.bundle_bytes":             {float64(setup.bundleBytes), "B"},
		"format.open_ms":                  {rep.openMs, "ms"},
		"engine.register_ms":              {rep.registerMs, "ms"},
		"serve.pool_start_ms":             {rep.poolStartMs, "ms"},
		"dsl.compile_ms":                  {0, "ms"},
		"ledger.gap_ratio":                {lg.gap(w), "ratio"},
		"trace.overhead_ratio":            {us(quantile(tracedLoad.lat, 0.5)) / us(quantile(untraced.lat, 0.5)), "ratio"},
	}
	var s5xx int64
	for code, n := range all.status {
		if code >= 500 {
			s5xx += n
		}
	}
	m["server.status_5xx"] = metric{float64(s5xx), "count"}

	var maxServed, sumServed int64
	for _, sh := range status.ShardStats {
		maxServed = max(maxServed, sh.Served)
		sumServed += sh.Served
	}
	skew := 0.0
	if sumServed > 0 {
		skew = float64(maxServed) / (float64(sumServed) / float64(len(status.ShardStats)))
	}
	m["serve.shard_skew"] = metric{skew, "ratio"}

	if w.batch {
		m["server.batch_self_us_per_doc"] = metric{lg.server.ns / 1e3, "us"}
		m["adapter.allocs_per_event"] = metric{lg.decode.allocs / lg.eventsPerDoc, "count"}
		m["dsl.compile_ms"] = metric{ms(setup.source), "ms"}
	} else {
		wait := spans[spanBodyWait]
		if wait != nil {
			m["serve.queue_wait_p50_us"] = metric{us(quantile(wait.durations, 0.50)), "us"}
			m["serve.queue_wait_p99_us"] = metric{us(quantile(wait.durations, 0.99)), "us"}
		}
		m["docstream.ns_per_event"] = metric{perEvent(lg.decode, lg.eventsPerDoc), "ns"}
		m["docstream.mb_per_s"] = metric{lg.bytesPerDoc / lg.decode.ns * 1e3, "MB/s"}
		m["docstream.allocs_per_doc"] = metric{lg.decode.allocs, "count"}
	}

	var products, states int
	for _, g := range rep.bundle.Groups() {
		products++
		states += g.Product.NumStates()
	}
	solo := 0
	for q := 0; q < rep.bundle.Len(); q++ {
		if rep.bundle.Query(q) != nil {
			solo++
		}
	}
	m["query.solo_runners"] = metric{float64(solo), "count"}
	m["query.product_groups"] = metric{float64(products), "count"}
	m["query.product_states"] = metric{float64(states), "count"}

	done := float64(max(untraced.attempted-untraced.failed, 1))
	pause, _ := pauseQuantile(gc0, gc1, 0.99)
	m["runtime.gc_cycles_per_kdoc"] = metric{float64(gc1.cycles-gc0.cycles) / done * 1000, "count"}
	m["runtime.gc_pause_p99_us"] = metric{us(pause), "us"}
	return m
}

// fetchStatus reads GET /v1/status.
func fetchStatus(st *stack) (server.Status, error) {
	var s server.Status
	resp, err := st.client.Get(st.base + "/v1/status")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /v1/status: HTTP %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// closeStack tears a stack down, reporting a failure on standard error.
func closeStack(st *stack) {
	if err := st.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: close stack:", err)
	}
}

// printMetrics writes one metric per line, sorted by name.
func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %s = %g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printMeta records what the result was measured on and how.
func printMeta(out io.Writer, w *workload, o options) {
	commit := "none"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	meta := map[string]any{
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"commit":       commit,
		"source_fnv64": sourceDigest(),
		"workload":     w.name,
		"seed":         o.seed,
		"loop":         "closed",
		"connections":  connections,
		"run_seconds":  o.seconds.Seconds(),
		"trace":        o.trace,
	}
	line, _ := json.Marshal(meta) // a map of plain values always encodes
	fmt.Fprintf(out, "meta %s\n", line)
}

// sourceDigest identifies the checkout being measured when it carries no
// git metadata: an FNV-64a hash over every Go file and go.mod under the
// working directory, outside hidden directories.
func sourceDigest() string {
	h := fnv.New64a()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				io.WriteString(h, path)
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("%016x", h.Sum64())
}
