package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"neofog"
)

// workload is one benchmark input set. setup may run several times in a
// process (close in between); replay runs the timed list (traced=false)
// or the shorter traced list (traced=true).
type workload interface {
	setup() error
	replay(tr *tracer, traced bool) window
	// verify runs the checks made after a timed window; it may count
	// wrong answers into w.
	verify(w *window) error
	digest() string
	cluster() *cluster // nil when the workload has no serve stack
	close()
}

// Nominal rates on a two-core host; request counts are these times
// --seconds, so the request list is fixed by the seed and the length
// flag, never by how fast the host happens to be.
const (
	hotPerSecond     = 9000
	coldPerSecond    = 140
	passesPerSecond  = 1.25
	tracedListShare  = 4 // the traced list is 1/4 of the timed one
	coldWarmup       = 64
	coldSampleStride = 16 // every 16th cold result is re-simulated
)

func expect(o *opts, b []byte) []byte {
	if !o.tamper || len(b) == 0 {
		return b
	}
	out := append([]byte(nil), b...)
	out[len(out)/2] ^= 0x01
	return out
}

// ---- hot-hits ----------------------------------------------------------

type hotHits struct {
	o        *opts
	seeds    []int64
	bodies   [][]byte
	expected [][]byte
	list     []int // timed request list: indices into the hot set
	tlist    []int
	cl       *cluster
	url      string // where requests go: the router
	clients  []*http.Client
}

func newHotHits(o *opts) *hotHits {
	h := &hotHits{o: o, seeds: newSeedStream(o.seed, 1).take(hotKeys)}
	for _, s := range h.seeds {
		h.bodies = append(h.bodies, simBody(s))
	}
	rng := rand.New(rand.NewSource(o.seed))
	n := max(hotPerSecond*o.seconds, 1)
	for i := 0; i < n; i++ {
		h.list = append(h.list, rng.Intn(hotKeys))
	}
	for i := 0; i < max(n/tracedListShare, 1); i++ {
		h.tlist = append(h.tlist, rng.Intn(hotKeys))
	}
	return h
}

func (h *hotHits) digest() string {
	idx, _ := json.Marshal([2][]int{h.list, h.tlist})
	return digestOf(append(h.bodies, idx)...)
}

func (h *hotHits) cluster() *cluster { return h.cl }

// setup boots the cluster, computes every hot config through it, and
// checks each answer against a direct simulation. A final pass of hits
// confirms every key now answers from cache.
func (h *hotHits) setup() error {
	cl, err := bootCluster(h.o.workdir, true)
	if err != nil {
		return err
	}
	h.cl, h.url, h.clients = cl, cl.RouterURL, newClients(h.o.clients)
	if err := h.computeExpected(); err != nil {
		return err
	}
	w := replay(len(h.bodies), h.clients, nil, func(c *http.Client, i int, _ *reqSpan) outcome {
		res, _, _, err := submitAndWait(c, h.url, h.bodies[i], nil)
		switch {
		case err != nil:
			return outcome{why: err.Error()}
		case !bytes.Equal(res, h.expected[i]):
			return outcome{wrong: true, why: fmt.Sprintf("hot seed %d: cluster answer differs from direct simulation", h.seeds[i])}
		}
		return outcome{ok: true}
	})
	if w.ok != len(h.bodies) {
		return fmt.Errorf("computing hot set: %d of %d ok: %s", w.ok, len(h.bodies), w.firstWhy)
	}
	all := make([]int, len(h.bodies))
	for i := range all {
		all[i] = i
	}
	if w = h.run(all, nil); w.ok != len(h.bodies) {
		return fmt.Errorf("warming hot set: %d of %d ok: %s", w.ok, len(h.bodies), w.firstWhy)
	}
	return nil
}

// computeExpected simulates every hot config directly.
func (h *hotHits) computeExpected() error {
	h.expected = make([][]byte, len(h.seeds))
	for i, s := range h.seeds {
		b, err := directResult(s)
		if err != nil {
			return fmt.Errorf("direct simulation of seed %d: %w", s, err)
		}
		h.expected[i] = expect(h.o, b)
	}
	return nil
}

func (h *hotHits) replay(tr *tracer, traced bool) window {
	if traced {
		return h.run(h.tlist, tr)
	}
	return h.run(h.list, tr)
}

// run sends one hit per entry of list, an index into the hot set.
func (h *hotHits) run(list []int, tr *tracer) window {
	return replay(len(list), h.clients, tr, func(c *http.Client, i int, rs *reqSpan) outcome {
		k := list[i]
		start := time.Now()
		end := rs.child("router_http")
		code, sub, _, err := post(c, h.url, h.bodies[k])
		end()
		switch {
		case err != nil:
			return outcome{why: err.Error()}
		case code != http.StatusOK:
			return outcome{why: fmt.Sprintf("hot submit: status %d", code)}
		case !sub.Cached:
			return outcome{why: "hot submit answered without cached:true"}
		case !bytes.Equal(sub.Job.Result, h.expected[k]):
			return outcome{wrong: true, why: fmt.Sprintf("hot seed %d: result bytes differ", h.seeds[k])}
		}
		return outcome{ok: true, latMs: ms(time.Since(start))}
	})
}

func (h *hotHits) verify(*window) error { return nil }

func (h *hotHits) close() {
	closeClients(h.clients)
	h.cl.close()
	h.cl, h.url, h.clients = nil, "", nil
}

// ---- cold-writes -------------------------------------------------------

type coldWrites struct {
	o                   *opts
	warm, timed, traced []int64
	sampled             [][]byte // result bytes of every coldSampleStride-th timed job
	cl                  *cluster
	url                 string // where requests go: the router
	clients             []*http.Client
}

func newColdWrites(o *opts) *coldWrites {
	s := newSeedStream(o.seed, 2)
	n := max(coldPerSecond*o.seconds, 1)
	return &coldWrites{
		o:      o,
		warm:   s.take(coldWarmup),
		timed:  s.take(n),
		traced: s.take(max(n/tracedListShare, 1)),
	}
}

func (w *coldWrites) digest() string {
	b, _ := json.Marshal([3][]int64{w.warm, w.timed, w.traced})
	return digestOf(b)
}

func (w *coldWrites) cluster() *cluster { return w.cl }

// setup boots the cluster and runs an untimed cold warm-up on it.
func (w *coldWrites) setup() error {
	cl, err := bootCluster(w.o.workdir, true)
	if err != nil {
		return err
	}
	w.cl, w.url, w.clients = cl, cl.RouterURL, newClients(w.o.clients)
	if win := w.run(w.warm, nil, nil); win.ok != len(w.warm) {
		return fmt.Errorf("cold warm-up: %d of %d ok: %s", win.ok, len(w.warm), win.firstWhy)
	}
	return nil
}

func (w *coldWrites) replay(tr *tracer, traced bool) window {
	if traced {
		return w.run(w.traced, tr, nil)
	}
	w.sampled = make([][]byte, len(w.timed))
	return w.run(w.timed, tr, w.sampled)
}

// run submits each seed once and polls it to completion. Results whose
// index is a multiple of coldSampleStride are kept in keep (when set)
// for the byte-for-byte check after the window.
func (w *coldWrites) run(seeds []int64, tr *tracer, keep [][]byte) window {
	return replay(len(seeds), w.clients, tr, func(c *http.Client, i int, rs *reqSpan) outcome {
		start := time.Now()
		res, cached, polls, err := submitAndWait(c, w.url, simBody(seeds[i]), rs)
		switch {
		case err != nil:
			return outcome{polls: polls, why: err.Error()}
		case cached:
			return outcome{polls: polls, why: "cold submit answered from cache"}
		case !json.Valid(res):
			return outcome{polls: polls, wrong: true, why: fmt.Sprintf("cold seed %d: result is not JSON", seeds[i])}
		}
		if keep != nil && i%coldSampleStride == 0 {
			keep[i] = res
		}
		return outcome{ok: true, polls: polls, latMs: ms(time.Since(start))}
	})
}

// verify re-simulates the sampled results directly and compares bytes.
func (w *coldWrites) verify(win *window) error {
	var bad []string
	for i := 0; i < len(w.timed); i += coldSampleStride {
		if w.sampled[i] == nil {
			continue // the job missed; already counted
		}
		want, err := directResult(w.timed[i])
		if err != nil {
			return fmt.Errorf("direct simulation of seed %d: %w", w.timed[i], err)
		}
		if !bytes.Equal(w.sampled[i], expect(w.o, want)) {
			win.ok--
			win.wrong++
			bad = append(bad, fmt.Sprint(w.timed[i]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("cold results differ from direct simulation for seeds %s", strings.Join(bad, ", "))
	}
	if p50 := median(win.latMs); p50 < 10*ms(pollInterval) {
		fmt.Fprintf(w.o.log, "warning: cold p50 %.2f ms is under ten poll intervals (%v); latency is quantized\n", p50, pollInterval)
	}
	return nil
}

func (w *coldWrites) close() {
	closeClients(w.clients)
	w.cl.close()
	w.cl, w.url, w.clients = nil, "", nil
}

// ---- figures -----------------------------------------------------------

// figureIDs are the sweep-backed experiments. Table-only experiments
// finish in microseconds and are left out so a pass is made of like
// work.
var figureIDs = []string{"fig9", "fig10", "fig11", "fig12", "fig13", "headline", "chaos", "resilience"}

// goldenIDs are checked against internal/experiments/testdata at the
// goldens' own settings (seed 1, 300 rounds).
var goldenIDs = []string{"fig10", "chaos", "resilience"}

type figures struct {
	o       *opts
	ref     []string // the warm-up pass every timed pass must equal
	passes  int
	tpasses int
}

func newFigures(o *opts) *figures {
	n := max(int(passesPerSecond*float64(o.seconds)+0.5), 1)
	return &figures{o: o, passes: n, tpasses: max(n/tracedListShare, 1)}
}

func (f *figures) digest() string {
	return digestOf([]byte(strings.Join(figureIDs, ",")), []byte(fmt.Sprint(f.passes, f.tpasses, f.o.clients)))
}

func (f *figures) cluster() *cluster { return nil }

// setup runs the reference pass and checks the golden CSVs.
func (f *figures) setup() error {
	f.ref = make([]string, len(figureIDs))
	for i, id := range figureIDs {
		out, err := neofog.RunExperiment(id, neofog.ExperimentOptions{Parallel: f.o.clients})
		if err != nil {
			return fmt.Errorf("reference %s: %w", id, err)
		}
		f.ref[i] = out
	}
	for _, id := range goldenIDs {
		want, err := os.ReadFile(filepath.Join(f.o.repo, "internal", "experiments", "testdata", id+".golden"))
		if err != nil {
			return fmt.Errorf("reading golden: %w", err)
		}
		var got bytes.Buffer
		if err := neofog.RunExperimentCSV(id, neofog.ExperimentOptions{Seed: 1, Rounds: 300, Parallel: f.o.clients}, &got); err != nil {
			return fmt.Errorf("golden run %s: %w", id, err)
		}
		if !bytes.Equal(got.Bytes(), expect(f.o, want)) {
			return fmt.Errorf("%s CSV at seed 1, 300 rounds differs from its golden", id)
		}
	}
	return nil
}

// replay runs whole passes. Each experiment is one attempt; latency
// samples are pass times.
func (f *figures) replay(tr *tracer, traced bool) window {
	n := f.passes
	if traced {
		n = f.tpasses
	}
	w := window{marks: []mark{markNow(0)}}
	for p := 0; p < n; p++ {
		rs := tr.request("pass")
		t := time.Now()
		good := 0
		for i, id := range figureIDs {
			end := rs.child("experiment." + id)
			out, err := neofog.RunExperiment(id, neofog.ExperimentOptions{Parallel: f.o.clients})
			end()
			w.attempted++
			switch {
			case err != nil:
				w.missed++
				w.firstWhy = err.Error()
			case out != f.ref[i]:
				w.wrong++
				w.firstWhy = id + " output differs from the reference pass"
			default:
				w.ok++
				good++
			}
		}
		rs.end()
		if good == len(figureIDs) {
			w.latMs = append(w.latMs, ms(time.Since(t)))
		}
		w.marks = append(w.marks, markNow(w.ok))
	}
	w.wall = w.marks[len(w.marks)-1].at.Sub(w.marks[0].at)
	return w
}

func (f *figures) verify(*window) error { return nil }

func (f *figures) close() {}

// nproc is the CPU count the load and the sweeps are sized to.
func nproc() int { return runtime.NumCPU() }
