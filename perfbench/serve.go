package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"neofog"
	"neofog/internal/loadgen"
	"neofog/internal/router"
	"neofog/internal/serve"
)

// Every simulation the serve workloads submit has this shape; only the
// seed varies. Hot and cold configs cost the same to simulate, so the
// two workloads differ only in whether inputs repeat.
const (
	simNodes  = 4
	simRounds = 30
	hotKeys   = 64
	shards    = 3
)

// cluster is one in-process deployment: shards plus router, with the
// disk tier on in a fresh directory when disk is set.
type cluster struct {
	*loadgen.Cluster
	dir string
}

func bootCluster(workdir string, disk bool) (*cluster, error) {
	dir, err := os.MkdirTemp(workdir, "cluster-")
	if err != nil {
		return nil, fmt.Errorf("making cluster dir: %w", err)
	}
	cfg := serve.Config{}
	if disk {
		cfg.CacheDir = dir
	}
	lc, err := loadgen.StartCluster(shards, cfg, router.Config{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("booting cluster: %w", err)
	}
	return &cluster{Cluster: lc, dir: dir}, nil
}

func (c *cluster) close() {
	if c == nil {
		return
	}
	c.Close()
	os.RemoveAll(c.dir)
}

// shardURL maps an X-Neofog-Shard name ("shard-<i>") to its base URL.
func (c *cluster) shardURL(name string) (string, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(name, "shard-"))
	if err != nil || i < 0 || i >= len(c.ShardURLs) {
		return "", fmt.Errorf("unknown shard %q", name)
	}
	return c.ShardURLs[i], nil
}

// counters scrapes the router's fan-in /metrics into name → value,
// summing labelled series of one family.
func (c *cluster) counters(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(c.RouterURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.HasSuffix(name[:i], "_bucket") {
				continue
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// newClients makes n HTTP clients, each limited to one keep-alive
// connection per host.
func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
	}
	return out
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// simBody is the JSON submission for one simulation seed.
func simBody(seed int64) []byte {
	b, err := json.Marshal(serve.Request{
		Kind:   serve.KindSimulate,
		Config: &neofog.SimulationConfig{Nodes: simNodes, Rounds: simRounds, Seed: seed},
	})
	if err != nil {
		panic(err) // a fixed struct of basic fields always marshals
	}
	return b
}

// directResult is the reference answer: neofog.Simulate followed by
// json.Marshal, exactly what a shard stores for the same config.
func directResult(seed int64) ([]byte, error) {
	res, err := neofog.Simulate(neofog.SimulationConfig{Nodes: simNodes, Rounds: simRounds, Seed: seed})
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// seedStream hands out distinct simulation seeds from the workload seed.
// Draws never repeat within one stream, so a cold request list never
// submits the same config twice.
type seedStream struct {
	rng  *rand.Rand
	seen map[int64]bool
}

func newSeedStream(seed int64, salt int64) *seedStream {
	return &seedStream{rng: rand.New(rand.NewSource(seed*1_000_003 + salt)), seen: map[int64]bool{}}
}

func (s *seedStream) take(n int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		v := 1 + s.rng.Int63n(1<<40)
		if !s.seen[v] {
			s.seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// outcome of one request. A miss (429, transport error, unexpected
// status or a broken premise such as an uncached hot answer) counts
// against ok_ratio; wrong result bytes fail the run.
type outcome struct {
	ok, wrong bool
	latMs     float64
	polls     int
	why       string
}

// window is what one replay measured.
type window struct {
	attempted, ok, missed, wrong int
	polls                        int
	latMs                        []float64
	wall                         time.Duration
	firstWhy                     string
	// marks cut the replay into slices of equal request counts; the
	// end-to-end rates are medians over slices, so a burst of outside
	// load during one slice does not move them.
	marks []mark
}

// mark is the clock, process CPU and completion count at a slice edge.
type mark struct {
	at  time.Time
	cpu time.Duration
	ok  int
}

// slices is how many marks-delimited slices a replay is cut into.
const slices = 50

func markNow(ok int) mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return mark{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ok: ok}
}

// replay sends n requests from len(clients) closed-loop clients that
// share one cursor: each client sends its next request only after its
// previous one has completed.
func replay(n int, clients []*http.Client, tr *tracer, do func(c *http.Client, i int, rs *reqSpan) outcome) window {
	var cursor atomic.Int64
	var mu sync.Mutex
	w := window{latMs: make([]float64, 0, n)}
	step := max(n/slices, 1)
	var wg sync.WaitGroup
	w.marks = append(w.marks, markNow(0))
	start := w.marks[0].at
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				rs := tr.request("request")
				o := do(c, i, rs)
				rs.end()
				mu.Lock()
				w.attempted++
				w.polls += o.polls
				switch {
				case o.wrong:
					w.wrong++
				case o.ok:
					w.ok++
					w.latMs = append(w.latMs, o.latMs)
				default:
					w.missed++
				}
				if !o.ok && w.firstWhy == "" {
					w.firstWhy = o.why
				}
				if w.attempted%step == 0 && w.attempted < n {
					w.marks = append(w.marks, markNow(w.ok))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.marks = append(w.marks, markNow(w.ok))
	w.wall = w.marks[len(w.marks)-1].at.Sub(start)
	return w
}

// post submits body and returns the status, the decoded answer, the
// serving shard and the raw response.
func post(c *http.Client, url string, body []byte) (int, serve.SubmitResponse, string, error) {
	var sub serve.SubmitResponse
	resp, err := c.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, sub, "", err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, sub, "", err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &sub); err != nil {
			return resp.StatusCode, sub, "", fmt.Errorf("decoding submit answer: %w", err)
		}
	}
	return resp.StatusCode, sub, resp.Header.Get("X-Neofog-Shard"), nil
}

// getJob fetches one job snapshot.
func getJob(c *http.Client, url, id string) (serve.Job, error) {
	var j serve.Job
	resp, err := c.Get(url + "/v1/jobs/" + id)
	if err != nil {
		return j, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return j, err
	}
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("GET job %s: status %d", id, resp.StatusCode)
	}
	return j, json.Unmarshal(raw, &j)
}

// pollInterval paces status polls of cold jobs. A cold job takes 8 to
// 20 ms end to end on a two-core host, depending on its load, so 0.5 ms
// keeps polling from quantizing latency; the run reports a warning if
// the median job ever drops below ten poll intervals.
const pollInterval = 500 * time.Microsecond

// submitAndWait submits one config and, unless it is answered from
// cache, polls until the job is done. It returns the result bytes.
func submitAndWait(c *http.Client, url string, body []byte, rs *reqSpan) (res []byte, cached bool, polls int, err error) {
	end := rs.child("router_http")
	code, sub, _, err := post(c, url, body)
	end()
	if err != nil {
		return nil, false, 0, err
	}
	switch code {
	case http.StatusOK:
		return sub.Job.Result, sub.Cached, 0, nil
	case http.StatusAccepted:
	default:
		return nil, false, 0, fmt.Errorf("submit: status %d", code)
	}
	for {
		time.Sleep(pollInterval)
		polls++
		end := rs.child("poll")
		j, err := getJob(c, url, sub.Job.ID)
		end()
		if err != nil {
			return nil, false, polls, err
		}
		switch j.Status {
		case serve.StatusDone:
			return j.Result, false, polls, nil
		case serve.StatusFailed, serve.StatusCancelled, serve.StatusPoisoned:
			return nil, false, polls, fmt.Errorf("job %s ended %s: %s", j.ID, j.Status, j.Error)
		}
	}
}

// digestOf fingerprints a request list.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ioWriteBytes reads write_bytes from /proc/self/io: bytes this process
// sent to the storage layer.
func ioWriteBytes() float64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}
