package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestSubmitRejectsUnknownFieldsAndTrailingData pins the strict submit
// decoder: a misspelt field or anything after the JSON value is a 400
// that creates no job, while trailing whitespace is still accepted.
func TestSubmitRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	for _, tc := range []struct{ body, want string }{
		{`{"config":{"nodez":3}}`, `json: unknown field "nodez"`},
		{`{"kind":"simulate","tenant":"gold"}`, `json: unknown field "tenant"`},
		{smallSim + ` trailing-garbage`, "trailing data after JSON value"},
		{smallSim + smallSim, "trailing data after JSON value"},
	} {
		code, raw, err := doPost(ts, tc.body)
		if err != nil {
			t.Fatalf("POST %q: %v", tc.body, err)
		}
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || code != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Fatalf("POST %q: status %d body %s, want 400 mentioning %q", tc.body, code, raw, tc.want)
		}
	}
	code, list := getBody(t, ts, "/v1/jobs")
	var jobs struct{ Jobs []Job }
	if err := json.Unmarshal(list, &jobs); code != http.StatusOK || err != nil {
		t.Fatalf("list jobs: status %d err %v", code, err)
	}
	if len(jobs.Jobs) != 0 || srv.metrics.counter("jobs_executed_total") != 0 {
		t.Fatalf("rejected submits created jobs: %s", list)
	}
	if code, _ := postJob(t, ts, smallSim+"\n\t "); code != http.StatusAccepted {
		t.Fatalf("submit with trailing whitespace: status %d, want 202", code)
	}
}
