package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzProcs and fuzzMaxBody configure the fuzz targets' server.
const (
	fuzzProcs   = 3
	fuzzMaxBody = 4096
)

// fuzzServer starts one server for a fuzz target. At -speed 1e9 a
// millisecond estimate sleeps a picosecond, and the 1 ms -timeout cuts off
// any longer body, so no input sleeps long: the fuzzer minimises a new
// input by running it thousands of times.
func fuzzServer(f *testing.F) http.Handler {
	srv, err := newServer(config{procs: fuzzProcs, alpha: 4, speed: 1e9, timeoutMs: 1, maxBody: fuzzMaxBody})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.sched.Close)
	return srv.routes()
}

// bodySeeds are inputs for both targets: empty, null, an array, truncated
// JSON and a body over -max-body.
var bodySeeds = []string{
	``, `null`, `[]`, `{`, `{"name":"t","est_ms":[1,`, `{"tasks":[{"name":"a","est_ms":[1,2`,
	`{"name":"big","est_ms":[1,1,1],"pad":"` + strings.Repeat("x", fuzzMaxBody) + `"}`,
}

// post sends body to path through the handler and checks the API
// contract: the status is 200, 400, 413 or 429, never a 5xx, and a non-200
// body is the {"error","code"} envelope with both fields set. It returns
// the response body when the status is 200, nil otherwise.
func post(t *testing.T, h http.Handler, path string, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK:
		return rec.Body.Bytes()
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
	default:
		t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
	}
	var env errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" || env.Code == "" {
		t.Fatalf("POST %s %q: status %d with body %q, want the error envelope (%v)", path, body, rec.Code, rec.Body, err)
	}
	return nil
}

// FuzzSubmitBody sends arbitrary bytes to POST /v1/submit. A 200 must name
// a processor the server has.
func FuzzSubmitBody(f *testing.F) {
	for _, s := range append([]string{
		`{"name":"matmul","est_ms":[26,0.1,95]}`, // TestServeSmoke
		`{"name":"t0-0","est_ms":[1,2,3]}`,
		`{"name":"wrong-len","est_ms":[1]}`, // TestServeBadRequests
		`{"name":"neg","est_ms":[1,-2,3]}`,
		`{"name":"actual-mismatch","est_ms":[1,2,3],"actual_ms":[1]}`,
		`{"name":"huge-actual","est_ms":[1,1,1],"actual_ms":[1e16,1e16,1e16]}`,
		`{"name":"huge-est","est_ms":[1e16,1e16,1e16]}`,
		`{"name":"probe","est_ms":[1,1,1],"actual_ms":[1e13,1e13,1e13]}`, // the -speed 1 overflow probe
		`{"name":"probe","est_ms":[1,1,1],"actual_ms":[1e22,1e22,1e22]}`, // the same sleep at -speed 1e9
		`{"name":"x","est_ms":[1,1,1],"xfer_ms":[0,0]}`,
	}, bodySeeds...) {
		f.Add([]byte(s))
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		out := post(t, h, "/v1/submit", body)
		if out == nil {
			return
		}
		var resp taskResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("submit %q: 200 with body %q: %v", body, out, err)
		}
		if resp.Proc < 0 || resp.Proc >= fuzzProcs {
			t.Fatalf("submit %q: 200 on processor %d, the server has %d", body, resp.Proc, fuzzProcs)
		}
	})
}

// FuzzGraphBody sends arbitrary bytes to POST /v1/graph. A 200 must carry
// one result per task of the request.
func FuzzGraphBody(f *testing.F) {
	for _, s := range append([]string{
		// TestServeSmoke's diamond.
		`{"tasks":[{"name":"a","est_ms":[1,2,3]},{"name":"b","est_ms":[2,1,3],"deps":[0]},` +
			`{"name":"c","est_ms":[3,2,1],"deps":[0]},{"name":"d","est_ms":[1,1,1],"deps":[1,2]}]}`,
		// TestServeBadRequests' graphs.
		`{"tasks":[{"name":"cyc-a","est_ms":[1,1,1],"deps":[1]},{"name":"cyc-b","est_ms":[1,1,1],"deps":[0]}]}`,
		`{"tasks":null}`,
		`{"tasks":[{"name":"huge-node","est_ms":[1,1,1],"actual_ms":[1,1e16,1]}]}`,
		`{"tasks":[{"name":"probe","est_ms":[1,1,1],"actual_ms":[1e22,1e22,1e22]}]}`,
		`{"tasks":[{"name":"a","est_ms":[1,1,1],"deps":[5]}]}`,
		`{"tasks":[{"name":"a","est_ms":[1,1,1]},{"name":"b","est_ms":[1,1,1],"deps":[0,0,-1]}]}`,
	}, bodySeeds...) {
		f.Add([]byte(s))
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		out := post(t, h, "/v1/graph", body)
		if out == nil {
			return
		}
		// Decode as the server does: the first JSON value of the body.
		var req graphRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("graph %q: 200 for a body that does not decode: %v", body, err)
		}
		var resp graphResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("graph %q: 200 with body %q: %v", body, out, err)
		}
		if len(resp.Results) != len(req.Tasks) {
			t.Fatalf("graph %q: %d results for %d tasks", body, len(resp.Results), len(req.Tasks))
		}
	})
}
