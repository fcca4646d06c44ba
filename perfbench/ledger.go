package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"neofog"
	"neofog/internal/qos"
	"neofog/internal/serve"
)

// Probe sizes. They are fixed, so the ledger measures the same work on
// every workload and every host.
const (
	probeKeys   = 16     // hot configs the hit probes cycle through
	probeHits   = 2000   // interleaved router / direct / handler / decode calls
	probeAllocs = 500    // calls per allocation count
	probeGets   = 500    // job-status reads
	probeQoS    = 100000 // admit+push+pop triples per batch
	probeSims   = 24     // direct simulations, with and without streaming
	probeCold   = 160    // cold jobs per persistence replay
)

// ledger measures every layer from outside, by timing calls into public
// functions and reading /metrics deltas. Probes that need a cluster use
// the workload's (so job reads see the run's final store size) or, for
// figures, one booted here.
func ledger(o *opts, w workload, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	cl := w.cluster()
	if cl == nil {
		c, err := bootCluster(o.workdir, true)
		if err != nil {
			return nil, err
		}
		defer c.close()
		cl = c
	}
	if err := hitProbes(o, cl, tr, m); err != nil {
		return nil, err
	}
	m["qos.admit_push_pop_ns"] = metric{qosProbe(), "ns"}
	if err := simProbes(o, tr, m); err != nil {
		return nil, err
	}
	if err := coldProbes(o, m); err != nil {
		return nil, err
	}
	m["serve.exec_overhead_ms"] = metric{m["serve.job_ms"].Value - m["sim.simulate_ms"].Value, "ms"}
	if err := experimentProbes(o, tr, m); err != nil {
		return nil, err
	}
	m["gen.cpu_share"] = metric{0, "ratio"}
	if w.cluster() != nil {
		share, err := genShare(o, cl.RouterURL)
		if err != nil {
			return nil, err
		}
		m["gen.cpu_share"] = metric{share, "ratio"}
	}
	return m, nil
}

// probeSet is a small hot set with its reference answers.
type probeSet struct {
	seeds    []int64
	bodies   [][]byte
	expected [][]byte
}

func newProbeSet(o *opts) (*probeSet, error) {
	p := &probeSet{seeds: newSeedStream(o.seed, 4).take(probeKeys)}
	for _, s := range p.seeds {
		want, err := directResult(s)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, simBody(s))
		p.expected = append(p.expected, want)
	}
	return p, nil
}

// hitProbes times one cached hit at each depth of the stack: through
// the router, direct to the owning shard over loopback HTTP, through an
// in-process handler, and the decode and encode steps alone.
func hitProbes(o *opts, cl *cluster, tr *tracer, m map[string]metric) error {
	p, err := newProbeSet(o)
	if err != nil {
		return err
	}
	c := newClients(1)[0]
	defer c.CloseIdleConnections()

	// Compute the probe set into the cluster, then learn each key's
	// owning shard and job ID from a hit.
	owners := make([]string, probeKeys)
	ids := make([]string, probeKeys)
	for k, body := range p.bodies {
		res, _, _, err := submitAndWait(c, cl.RouterURL, body, nil)
		if err != nil {
			return fmt.Errorf("computing probe key: %w", err)
		}
		if !bytes.Equal(res, p.expected[k]) {
			return fmt.Errorf("probe seed %d: cluster answer differs from direct simulation", p.seeds[k])
		}
		_, sub, shard, err := post(c, cl.RouterURL, body)
		if err != nil {
			return err
		}
		if owners[k], err = cl.shardURL(shard); err != nil {
			return err
		}
		ids[k] = sub.Job.ID
	}

	srv, err := serve.New(serve.Config{})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	h := srv.Handler()
	for k, body := range p.bodies {
		if err := computeInHandler(h, body, p.expected[k]); err != nil {
			return err
		}
	}

	var router, direct, handler, decode []float64
	hit := func(url string, k int) error {
		code, sub, _, err := post(c, url, p.bodies[k])
		switch {
		case err != nil:
			return err
		case code != http.StatusOK || !sub.Cached || !bytes.Equal(sub.Job.Result, p.expected[k]):
			return fmt.Errorf("probe hit on %s: status %d cached %v", url, code, sub.Cached)
		}
		return nil
	}
	var lastHit serve.SubmitResponse
	for r := 0; r < probeHits; r++ {
		k := r % probeKeys
		rs := tr.request("probe.hit")

		end := rs.child("router_http")
		t := time.Now()
		err := hit(cl.RouterURL, k)
		router = append(router, us(time.Since(t)))
		end()
		if err != nil {
			return err
		}

		end = rs.child("direct_http")
		t = time.Now()
		err = hit(owners[k], k)
		direct = append(direct, us(time.Since(t)))
		end()
		if err != nil {
			return err
		}

		end = rs.child("decode_normalize")
		t = time.Now()
		err = decodeNormalize(p.bodies[k])
		decode = append(decode, us(time.Since(t)))
		end()
		if err != nil {
			return err
		}

		req, rec := hitRequest(p.bodies[k])
		end = rs.child("handler")
		t = time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, us(time.Since(t)))
		end()
		rs.end()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process hit: status %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &lastHit); err != nil || !bytes.Equal(lastHit.Job.Result, p.expected[k]) {
			return fmt.Errorf("in-process hit: wrong answer (%v)", err)
		}
	}

	var encode []float64
	for r := 0; r < probeHits; r++ {
		t := time.Now()
		if _, err := json.Marshal(lastHit); err != nil {
			return err
		}
		encode = append(encode, us(time.Since(t)))
	}

	var gets []float64
	for r := 0; r < probeGets; r++ {
		k := r % probeKeys
		t := time.Now()
		j, err := getJob(c, owners[k], ids[k])
		gets = append(gets, us(time.Since(t)))
		if err != nil {
			return err
		}
		if j.Status != serve.StatusDone {
			return fmt.Errorf("probe job %s is %s", j.ID, j.Status)
		}
	}

	decodeAllocs := allocsPerCall(probeAllocs, func(i int) { _ = decodeNormalize(p.bodies[i%probeKeys]) })
	reqs := make([]*http.Request, probeAllocs)
	recs := make([]*httptest.ResponseRecorder, probeAllocs)
	for i := range reqs {
		reqs[i], recs[i] = hitRequest(p.bodies[i%probeKeys])
	}
	handlerAllocs := allocsPerCall(probeAllocs, func(i int) { h.ServeHTTP(recs[i], reqs[i]) })

	m["router.hop_us"] = metric{median(router) - median(direct), "us"}
	m["serve.http_loopback_us"] = metric{median(direct) - median(handler), "us"}
	m["serve.handler_hit_us"] = metric{median(handler), "us"}
	m["serve.handler_hit_allocs"] = metric{handlerAllocs, "count"}
	m["serve.encode_hit_us"] = metric{median(encode), "us"}
	m["serve.job_get_us"] = metric{median(gets), "us"}
	m["canon.decode_normalize_us"] = metric{median(decode), "us"}
	m["canon.decode_normalize_allocs"] = metric{decodeAllocs, "count"}
	return nil
}

func decodeNormalize(body []byte) error {
	var req serve.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	_, _, err := serve.Normalize(req)
	return err
}

func hitRequest(body []byte) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req, httptest.NewRecorder()
}

// computeInHandler submits body to an in-process handler and waits for
// the job, checking the answer.
func computeInHandler(h http.Handler, body, want []byte) error {
	req, rec := hitRequest(body)
	h.ServeHTTP(rec, req)
	var sub serve.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		return fmt.Errorf("in-process submit: status %d: %w", rec.Code, err)
	}
	for sub.Job.Status != serve.StatusDone {
		time.Sleep(pollInterval)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.Job.ID, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &sub.Job); err != nil {
			return fmt.Errorf("in-process poll: status %d: %w", rec.Code, err)
		}
		switch sub.Job.Status {
		case serve.StatusFailed, serve.StatusCancelled, serve.StatusPoisoned:
			return fmt.Errorf("in-process job ended %s: %s", sub.Job.Status, sub.Job.Error)
		}
	}
	if !bytes.Equal(sub.Job.Result, want) {
		return fmt.Errorf("in-process answer differs from direct simulation")
	}
	return nil
}

// allocsPerCall counts heap allocations per call of f over n calls.
func allocsPerCall(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// qosProbe times one admit, push and pop on a standalone default-tenant
// scheduler: the per-job scheduling cost on the cold path.
func qosProbe() float64 {
	var batches []float64
	for b := 0; b < 5; b++ {
		s, err := qos.NewScheduler[int](nil)
		if err != nil {
			panic(err) // the default config is always valid
		}
		now := time.Now()
		t := time.Now()
		for i := 0; i < probeQoS; i++ {
			s.Admit("", now)
			s.Push("", qos.Interactive, i)
			s.Pop()
		}
		batches = append(batches, float64(time.Since(t).Nanoseconds())/probeQoS)
	}
	return median(batches)
}

type nopStreamer struct{}

func (nopStreamer) TelemetryEvent(int, int, string, bool, float64, float64, float64) {}
func (nopStreamer) TelemetrySample(int, int, int, float64, float64, int, bool)       {}

// simProbes times direct simulations of cold configs, plain and with
// the streaming telemetry every served job attaches.
func simProbes(o *opts, tr *tracer, m map[string]metric) error {
	var plain, streamed, allocs []float64
	for _, seed := range newSeedStream(o.seed, 5).take(probeSims) {
		cfg := neofog.SimulationConfig{Nodes: simNodes, Rounds: simRounds, Seed: seed}
		rs := tr.request("probe.sim")
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		end := rs.child("simulate")
		t := time.Now()
		want, err := neofog.Simulate(cfg)
		plain = append(plain, ms(time.Since(t)))
		end()
		runtime.ReadMemStats(&b)
		if err != nil {
			return err
		}
		allocs = append(allocs, float64(b.Mallocs-a.Mallocs))

		cfg.Telemetry = neofog.NewStreamingTelemetry(nopStreamer{})
		end = rs.child("simulate_streaming")
		t = time.Now()
		got, err := neofog.Simulate(cfg)
		streamed = append(streamed, ms(time.Since(t)))
		end()
		rs.end()
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("seed %d: streaming telemetry changed the result", seed)
		}
	}
	m["sim.simulate_ms"] = metric{median(plain), "ms"}
	m["sim.simulate_allocs"] = metric{median(allocs), "count"}
	m["telemetry.stream_overhead_ms"] = metric{median(streamed) - median(plain), "ms"}
	return nil
}

// coldProbes replays one list of fresh configs on a disk-tier cluster
// and on a memory-only one. The disk side's /metrics deltas give queue
// wait and job time; the latency difference is the persistence cost.
func coldProbes(o *opts, m map[string]metric) error {
	seeds := newSeedStream(o.seed, 6).take(probeCold)
	meanLat := map[bool]float64{}
	for _, disk := range []bool{true, false} {
		cl, err := bootCluster(o.workdir, disk)
		if err != nil {
			return err
		}
		cw := &coldWrites{o: o, url: cl.RouterURL, clients: newClients(o.clients)}
		before, err := cl.counters(cw.clients[0])
		if err != nil {
			cl.close()
			return err
		}
		win := cw.run(seeds, nil, nil)
		after, err := cl.counters(cw.clients[0])
		closeClients(cw.clients)
		cl.close()
		if err != nil {
			return err
		}
		if win.ok != len(seeds) {
			return fmt.Errorf("cold probe: %d of %d ok: %s", win.ok, len(seeds), win.firstWhy)
		}
		var sum float64
		for _, l := range win.latMs {
			sum += l
		}
		meanLat[disk] = sum / float64(len(win.latMs))
		if disk {
			d := func(name string) float64 { return after[name] - before[name] }
			m["serve.job_ms"] = metric{1000 * d("neofog_serve_job_seconds_sum") / d("neofog_serve_job_seconds_count"), "ms"}
			m["serve.queue_wait_ms"] = metric{1000 * d("neofog_serve_queue_wait_seconds_sum") / d("neofog_serve_queue_wait_seconds_count"), "ms"}
		}
	}
	m["store.persist_ms_per_job"] = metric{meanLat[true] - meanLat[false], "ms"}
	return nil
}

// experimentProbes times each sweep once at full width, then the whole
// pass serially; both passes must print the same tables.
func experimentProbes(o *opts, tr *tracer, m map[string]metric) error {
	pass := func(parallel int, record bool) ([]string, float64, error) {
		rs := tr.request("probe.pass")
		defer rs.end()
		outs := make([]string, len(figureIDs))
		start := time.Now()
		for i, id := range figureIDs {
			end := rs.child("experiment." + id)
			t := time.Now()
			out, err := neofog.RunExperiment(id, neofog.ExperimentOptions{Parallel: parallel})
			d := ms(time.Since(t))
			end()
			if err != nil {
				return nil, 0, err
			}
			outs[i] = out
			if record {
				m["experiments."+id+"_ms"] = metric{d, "ms"}
			}
		}
		return outs, ms(time.Since(start)), nil
	}
	wide, wideMs, err := pass(o.clients, true)
	if err != nil {
		return err
	}
	serial, serialMs, err := pass(1, false)
	if err != nil {
		return err
	}
	for i := range wide {
		if wide[i] != serial[i] {
			return fmt.Errorf("%s differs between Parallel=1 and Parallel=%d", figureIDs[i], o.clients)
		}
	}
	m["experiments.parallel_speedup"] = metric{serialMs / wideMs, "x"}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
