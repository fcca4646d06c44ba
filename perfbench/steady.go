package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady repeats each workload n times, each in a fresh process with
// its own seed, and prints per metric the median, quartiles, relative
// IQR and max/min, flagging any spread above the metric's bound. It
// refuses to pool runs whose host or build stamps differ.
func runSteady(o *opts, n int, only []string) error {
	raw, err := os.ReadFile(filepath.Join(o.repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	names := only
	if len(names) == 0 {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, name := range names {
		values := map[string][]float64{}
		var calib []float64
		var host string
		for seed := 1; seed <= n; seed++ {
			res, st, cal, err := runChild(self, o, name, seed)
			if err != nil {
				return err
			}
			calib = append(calib, cal)
			b, _ := json.Marshal(st.host)
			if host == "" {
				host = string(b)
			} else if host != string(b) {
				return fmt.Errorf("%s seed %d ran on another host or build: %s vs %s", name, seed, b, host)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d", name, seed, res.Correct, res.Failed)
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		lo, hi := minMax(calib)
		fmt.Fprintf(o.log, "\n%s: %d runs, --seconds %d, host calibration median %.2f ms (%.2f–%.2f), host %s\n",
			name, n, o.seconds, exactMedian(calib), lo, hi, host)
		fmt.Fprintf(o.log, "| metric | unit | median | q1 | q3 | IQR/median | max/min | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
		for _, e := range spec.EndToEnd {
			v := values[e.Name]
			if len(v) == 0 {
				return fmt.Errorf("%s: metric %s missing", name, e.Name)
			}
			med := exactMedian(v)
			q1, q3 := quartiles(v)
			lo, hi := minMax(v)
			spread := (q3 - q1) / med
			mark := ""
			if e.Name != "setup_s" && spread > e.Bound {
				mark = "OVER"
				flagged++
			} else if e.Name != "setup_s" && spread > e.Bound/3 {
				mark = "over 1/3"
			}
			fmt.Fprintf(o.log, "| %s | %s | %.4g | %.4g | %.4g | %.3f | %.3f | %.2f | %s |\n",
				e.Name, e.Unit, med, q1, q3, spread, hi/lo, e.Bound, mark)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric spreads above their bounds", flagged)
	}
	return nil
}

// runChild runs one untraced workload run in a fresh process and
// returns its result line, stamp and host calibration.
func runChild(self string, o *opts, name string, seed int) (res result, st stamp, calib float64, err error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", "0", "-workdir", o.workdir, "-repo", o.repo)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, st, 0, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	var last string
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, "stamp "); ok {
			if err := json.Unmarshal([]byte(s), &st); err != nil {
				return res, st, 0, err
			}
		}
		if s, ok := strings.CutPrefix(line, "host calibration: "); ok {
			fmt.Sscan(s, &calib)
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, st, 0, fmt.Errorf("%s seed %d: parsing result: %w", name, seed, err)
	}
	return res, st, calib, nil
}

func minMax(v []float64) (float64, float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}
