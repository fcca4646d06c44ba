// Command perfbench is the repository's benchmark: it replays a seeded
// request list against the serve cluster (hot-hits, cold-writes) or the
// paper's sweeps (figures), checks every output, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 1
// the metrics are the per-layer ledger; otherwise the end-to-end set.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 10   # steadiness table
//
// See README.md in this directory for what each workload and metric
// means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"neofog"
)

var procStart = time.Now()

// setupRuns is how many times a run sets up its workload; setup_s is
// their median, so one slow boot does not move it.
const setupRuns = 3

type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tamper   bool   // corrupt every expected result: the checker's self-test
	workdir  string // run artefacts (cluster directories, traces) live under it
	repo     string // repository root, for the golden CSVs
	clients  int    // closed-loop clients and sweep width: nproc
	log      io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the host, build and inputs of one report, so runs of
// unlike hosts or request lists are never compared.
type stamp struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Requests string `json:"requests_sha256"`
	host
}

// host is the part of a stamp that must match for runs to be pooled.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

var workloadNames = []string{"hot-hits", "cold-writes", "figures"}

func newWorkload(o *opts) (workload, error) {
	switch o.workload {
	case "hot-hits":
		return newHotHits(o), nil
	case "cold-writes":
		return newColdWrites(o), nil
	case "figures":
		return newFigures(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

func main() {
	if spec := os.Getenv(genEnv); spec != "" {
		os.Exit(genMain(spec))
	}
	o := &opts{log: os.Stdout, clients: nproc()}
	var trace int
	var steady int
	flag.StringVar(&o.workload, "workload", "hot-hits", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the request list is a function of it")
	flag.IntVar(&o.seconds, "seconds", 10, "run length: request counts are nominal rates times this")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and the per-layer ledger")
	flag.BoolVar(&o.tamper, "tamper", false, "corrupt the expected results (the run must fail)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for run artefacts")
	flag.StringVar(&o.repo, "repo", ".", "repository root")
	flag.IntVar(&steady, "steady", 0, "repeat each workload this many times in fresh processes and print a steadiness table")
	flag.Parse()
	o.trace = trace == 1

	var err error
	switch {
	case steady > 0:
		err = runSteady(o, steady, flag.Args())
	default:
		var res result
		res, err = run(o)
		if err == nil {
			b, _ := json.Marshal(res)
			fmt.Println(string(b))
			if !res.Correct {
				err = errors.New("outputs failed their checks")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// usage is one sample of the process's resource counters.
type usage struct {
	cpu     time.Duration
	maxRSS  float64 // MB
	mallocs uint64
	gc      uint32
}

func usageNow() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS:  float64(ru.Maxrss) / 1024,
		mallocs: ms.Mallocs,
		gc:      ms.NumGC,
	}
}

func run(o *opts) (result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	traceDir := o.workdir
	o.workdir = dir

	w, err := newWorkload(o)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	for k := 0; k < setupRuns; k++ {
		if k > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	printStamp(o, w)
	calib := hostCalibMs()
	fmt.Fprintf(o.log, "host calibration: %.4f ms (one fixed simulation; compare across runs to see host speed drift)\n", calib)

	fmt.Fprintf(o.log, "time from process start to timed window: %.4f s\n", time.Since(procStart).Seconds())

	cl := w.cluster()
	scrape := newClients(1)[0]
	defer scrape.CloseIdleConnections()
	var before map[string]float64
	if cl != nil {
		if before, err = cl.counters(scrape); err != nil {
			return result{}, err
		}
	}
	wb0, u0 := ioWriteBytes(), usageNow()
	win := w.replay(nil, false)
	u1, wb1 := usageNow(), ioWriteBytes()
	verr := w.verify(&win)
	res := result{Correct: verr == nil && win.wrong == 0, Attempted: win.attempted, Failed: win.attempted - win.ok}
	if verr != nil {
		fmt.Fprintln(o.log, "check failed:", verr)
	}
	if win.wrong > 0 {
		fmt.Fprintln(o.log, "check failed:", win.firstWhy)
	}
	if win.missed > 0 {
		fmt.Fprintf(o.log, "%d of %d requests missed; first: %s\n", win.missed, win.attempted, win.firstWhy)
	}
	if win.ok == 0 {
		return res, fmt.Errorf("no request completed: %s", win.firstWhy)
	}

	e2e := endToEnd(win, u1.maxRSS, setups)
	printMetrics(o, "end-to-end", e2e)
	fmt.Fprintf(o.log, "samples=%d latency_p99_ms=%s whole-window: %.4f jobs/s, %.4f cpu ms/job\n",
		len(win.latMs), tail(win.latMs, 0.99), float64(win.ok)/win.wall.Seconds(), ms(u1.cpu-u0.cpu)/float64(win.ok))
	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}

	layers := map[string]metric{
		"untraced.latency_p50_ms":       {median(win.latMs), "ms"},
		"host.calib_ms":                 {calib, "ms"},
		"runtime.allocs_per_job":        {float64(u1.mallocs-u0.mallocs) / float64(win.ok), "count"},
		"runtime.gc_cycles_per_1k_jobs": {float64(u1.gc-u0.gc) * 1000 / float64(win.ok), "count"},
		"gen.polls_per_job":             {float64(win.polls) / float64(win.ok), "count"},
		"store.write_kb_per_job":        {(wb1 - wb0) / 1024 / float64(win.ok), "KB"},
		"store.hit_ratio":               {0, "ratio"},
		"router.retries":                {0, "count"},
	}
	if cl != nil {
		after, err := cl.counters(scrape)
		if err != nil {
			return res, err
		}
		d := func(name string) float64 { return after[name] - before[name] }
		if lookups := d("neofog_serve_cache_hits_total") + d("neofog_serve_cache_misses_total"); lookups > 0 {
			layers["store.hit_ratio"] = metric{d("neofog_serve_cache_hits_total") / lookups, "ratio"}
		}
		layers["router.retries"] = metric{d("neofog_router_retries_total"), "count"}
	}

	tr := newTracer()
	twin := w.replay(tr, true)
	if twin.wrong > 0 || twin.ok == 0 {
		res.Correct = false
		fmt.Fprintln(o.log, "check failed in traced replay:", twin.firstWhy)
	}
	traced := endToEnd(twin, usageNow().maxRSS, setups)
	layers["traced.throughput_jobs_s"] = traced["throughput_jobs_s"]
	layers["traced.latency_p50_ms"] = traced["latency_p50_ms"]
	fmt.Fprintf(o.log, "tracing overhead: p50 %.4f ms untraced, %.4f ms traced; %.1f jobs/s untraced, %.1f traced\n",
		e2e["latency_p50_ms"].Value, traced["latency_p50_ms"].Value,
		e2e["throughput_jobs_s"].Value, traced["throughput_jobs_s"].Value)

	probes, err := ledger(o, w, tr)
	if err != nil {
		return res, fmt.Errorf("ledger: %w", err)
	}
	for k, v := range probes {
		layers[k] = v
	}
	printMetrics(o, "per-layer", layers)
	printSelfTimes(o, tr)
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", traceDir, o.workload, o.seed)
	if err := tr.writeChrome(path); err != nil {
		return res, err
	}
	fmt.Fprintln(o.log, "spans written to", path)
	res.Metrics = layers
	return res, nil
}

// endToEnd derives the user-facing metrics of one window. Throughput
// and CPU per job are medians over the window's slices.
func endToEnd(w window, maxRSS float64, setups []float64) map[string]metric {
	var rates, cpus []float64
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		if done := b.ok - a.ok; done > 0 {
			rates = append(rates, float64(done)/b.at.Sub(a.at).Seconds())
			cpus = append(cpus, ms(b.cpu-a.cpu)/float64(done))
		}
	}
	return map[string]metric{
		"throughput_jobs_s": {median(rates), "jobs/s"},
		"latency_p50_ms":    {median(w.latMs), "ms"},
		"ok_ratio":          {float64(w.ok) / float64(max(w.attempted, 1)), "ratio"},
		"cpu_ms_per_job":    {median(cpus), "ms"},
		"max_rss_mb":        {maxRSS, "MB"},
		"setup_s":           {exactMedian(setups), "s"},
	}
}

// tail formats the q-quantile, or "n/a" when fewer than ten samples lie
// beyond it.
func tail(samples []float64, q float64) string {
	if !tailOK(len(samples), q) {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", percentile(samples, q))
}

func printMetrics(o *opts, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(o.log, "-- %s (%s, seed %d)\n", title, o.workload, o.seed)
	for _, k := range names {
		fmt.Fprintf(o.log, "%-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printSelfTimes(o *opts, tr *tracer) {
	fmt.Fprintf(o.log, "-- self time by span (%s)\n%-28s %8s %12s %12s %7s\n", o.workload, "span", "count", "median_ms", "self_ms", "share")
	for _, r := range tr.selfTimes() {
		fmt.Fprintf(o.log, "%-28s %8d %12.4f %12.2f %6.1f%%\n", r.Name, r.Count, r.MedianMs, r.SelfMs, 100*r.SelfShare)
	}
}

func printStamp(o *opts, w workload) {
	b, _ := json.Marshal(newStamp(o, w.digest()))
	fmt.Fprintf(o.log, "stamp %s\n", b)
}

func newStamp(o *opts, digest string) stamp {
	s := stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Requests: digest,
		host: host{
			Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPU: cpuModel(), Go: runtime.Version(), Commit: "unknown",
		},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					s.Commit += "+dirty"
				}
			}
		}
	}
	return s
}

// hostCalibMs times one fixed simulation (median of five), so a report
// shows how fast the host ran this program's kind of work while it was
// measured. A shared host's speed drifts over minutes.
func hostCalibMs() float64 {
	var times []float64
	for r := 0; r < 5; r++ {
		t := time.Now()
		if _, err := neofog.Simulate(neofog.SimulationConfig{Nodes: simNodes, Rounds: simRounds, Seed: 1}); err != nil {
			panic(err) // a fixed valid config
		}
		times = append(times, ms(time.Since(t)))
	}
	return median(times)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// genEnv carries "<router-url> <workload> <seed> <seconds>" to the
// generator child. An environment variable rather than flags lets the
// test binary serve as the child too (see TestMain).
const genEnv = "PERFBENCH_GEN"

func genMain(spec string) int {
	o := &opts{log: os.Stderr, clients: nproc()}
	var url string
	if _, err := fmt.Sscan(spec, &url, &o.workload, &o.seed, &o.seconds); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: bad %s %q: %v\n", genEnv, spec, err)
		return 2
	}
	if err := runGen(o, url); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench generator:", err)
		return 1
	}
	return 0
}

// runGen is the child side of the gen.cpu_share probe: it replays half
// the traced list's length against a running router and reports the
// CPU time its replay took.
func runGen(o *opts, url string) error {
	var replayOnce func() window
	switch o.workload {
	case "hot-hits":
		h := newHotHits(o)
		if err := h.computeExpected(); err != nil {
			return err
		}
		h.url, h.clients = url, newClients(o.clients)
		list := h.tlist[:max(len(h.tlist)/2, 1)]
		replayOnce = func() window { return h.run(list, nil) }
	case "cold-writes":
		c := newColdWrites(o)
		c.url, c.clients = url, newClients(o.clients)
		seeds := newSeedStream(o.seed, 3).take(max(len(c.traced)/2, 1))
		replayOnce = func() window { return c.run(seeds, nil, nil) }
	default:
		return fmt.Errorf("workload %q has no load generator", o.workload)
	}
	u0 := usageNow()
	w := replayOnce()
	u1 := usageNow()
	if w.ok != w.attempted {
		return fmt.Errorf("generator replay: %d of %d ok: %s", w.ok, w.attempted, w.firstWhy)
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]float64{"cpu_ms": ms(u1.cpu - u0.cpu), "jobs": float64(w.ok)})
}

// genShare runs the generator in a child process against the cluster
// and returns its share of the CPU both processes spent meanwhile.
func genShare(o *opts, url string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %s %d %d", genEnv, url, o.workload, o.seed, o.seconds))
	cmd.Stderr = os.Stderr
	u0 := usageNow()
	out, err := cmd.Output()
	u1 := usageNow()
	if err != nil {
		return 0, fmt.Errorf("generator child: %w", err)
	}
	var rep struct {
		CPU float64 `json:"cpu_ms"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return 0, fmt.Errorf("generator child report: %w", err)
	}
	return rep.CPU / (rep.CPU + ms(u1.cpu-u0.cpu)), nil
}
