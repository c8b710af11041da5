package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"leonardo"
	"leonardo/internal/serve"
)

// promSample matches one Prometheus text-format sample line:
// name{labels} value.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? ([-+0-9.eE]+|NaN|Inf|[+-]Inf)$`)

// parsePrometheus validates the text exposition format line by line and
// returns the samples keyed by name{labels}.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("metrics comment is neither HELP nor TYPE: %q", line)
			}
			continue
		}
		match := promSample.FindStringSubmatch(line)
		if match == nil {
			t.Fatalf("metrics line does not parse as Prometheus text format: %q", line)
		}
		v, err := strconv.ParseFloat(match[3], 64)
		if err != nil {
			t.Fatalf("metrics value %q: %v", match[3], err)
		}
		samples[match[1]+match[2]] = v
	}
	return samples
}

// runStateSum adds up the leonardod_runs gauge across every state.
func runStateSum(t *testing.T, samples map[string]float64) int {
	t.Helper()
	sum := 0.0
	seen := 0
	for _, st := range serve.States {
		key := fmt.Sprintf("leonardod_runs{state=%q}", string(st))
		v, ok := samples[key]
		if !ok {
			t.Fatalf("metrics missing %s", key)
		}
		sum += v
		seen++
	}
	if seen != len(serve.States) {
		t.Fatalf("metrics emitted %d run states, want %d", seen, len(serve.States))
	}
	return int(sum)
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: %v in %q", url, err, data)
		}
	}
	return resp.StatusCode
}

func TestAPIEndpoints(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 2, SnapshotEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(serve.NewAPI(m))
	defer srv.Close()

	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// Registry starts empty; the run-state gauges agree.
	var list []serve.Info
	if code := getJSON(t, srv.URL+"/v1/runs", &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("initial list = %d, %v", code, list)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	if sum := runStateSum(t, parsePrometheus(t, string(body))); sum != 0 {
		t.Fatalf("empty registry, state gauges sum to %d", sum)
	}

	// Submission errors map to their status codes.
	if code := postJSON(t, srv.URL+"/v1/runs", `{not json`, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", code)
	}
	if code := postJSON(t, srv.URL+"/v1/runs", `{"kind":"bogus"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown kind = %d, want 400", code)
	}
	if code := postJSON(t, srv.URL+"/v1/runs", `{"kind":"gap","wat":1}`, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", code)
	}

	// Unknown ids are 404 everywhere.
	if code := getJSON(t, srv.URL+"/v1/runs/r999999", nil); code != http.StatusNotFound {
		t.Fatalf("get unknown = %d, want 404", code)
	}
	if code := postJSON(t, srv.URL+"/v1/runs/r999999/cancel", ``, nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/v1/runs/r999999/snapshot", nil); code != http.StatusNotFound {
		t.Fatalf("snapshot unknown = %d, want 404", code)
	}

	// A real run: 201 on submit, live view, snapshot bytes that sniff
	// back to the submitted kind.
	var info serve.Info
	if code := postJSON(t, srv.URL+"/v1/runs", `{"kind":"gap","seed":3,"steps":4,"max_generations":400}`, &info); code != http.StatusCreated {
		t.Fatalf("submit = %d, want 201", code)
	}
	waitFor(t, 10*time.Second, "run to finish over HTTP", func() bool {
		var got serve.Info
		return getJSON(t, srv.URL+"/v1/runs/"+info.ID, &got) == http.StatusOK && got.State == serve.StateDone
	})
	snapResp, err := http.Get(srv.URL + "/v1/runs/" + info.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()
	if snapResp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %d, want 200", snapResp.StatusCode)
	}
	if ct := snapResp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot content type %q", ct)
	}
	if kind, err := leonardo.SnapshotKind(snap); err != nil || kind != leonardo.KindGAP {
		t.Fatalf("snapshot sniffs as %q, %v", kind, err)
	}

	// Cancelling a finished run is a conflict.
	if code := postJSON(t, srv.URL+"/v1/runs/"+info.ID+"/cancel", ``, nil); code != http.StatusConflict {
		t.Fatalf("cancel finished = %d, want 409", code)
	}

	if code := getJSON(t, srv.URL+"/v1/runs", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list = %d, %d runs, want 1", code, len(list))
	}
}

// TestAPISpecBodyCap: a run spec body over the 1 MiB cap is refused
// with 413 before it is decoded, and a normal spec on the same server
// still submits.
func TestAPISpecBodyCap(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(serve.NewAPI(m))
	defer srv.Close()

	huge := `{"kind":"gap","name":"` + strings.Repeat("a", 2<<20) + `"}`
	if code := postJSON(t, srv.URL+"/v1/runs", huge, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB spec = %d, want 413", code)
	}
	if code := postJSON(t, srv.URL+"/v1/runs", `{"kind":"gap","seed":3,"max_generations":5}`, nil); code != http.StatusCreated {
		t.Fatalf("normal spec after an oversized one = %d, want 201", code)
	}
}

func TestAPIBackpressure(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(serve.NewAPI(m))
	defer srv.Close()

	long := `{"kind":"gap","seed":1,"steps":7,"max_generations":50000000}`
	var first serve.Info
	if code := postJSON(t, srv.URL+"/v1/runs", long, &first); code != http.StatusCreated {
		t.Fatalf("first submit = %d", code)
	}
	waitFor(t, 10*time.Second, "first run to start", func() bool {
		var got serve.Info
		getJSON(t, srv.URL+"/v1/runs/"+first.ID, &got)
		return got.State == serve.StateRunning
	})
	if code := postJSON(t, srv.URL+"/v1/runs", long, nil); code != http.StatusCreated {
		t.Fatalf("second submit = %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/runs", long, nil); code != http.StatusTooManyRequests {
		t.Fatalf("third submit = %d, want 429", code)
	}

	// Queue depth is visible on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := parsePrometheus(t, string(body))
	if samples["leonardod_queue_depth"] != 1 {
		t.Fatalf("queue depth gauge = %v, want 1", samples["leonardod_queue_depth"])
	}
	if sum := runStateSum(t, samples); sum != 2 {
		t.Fatalf("state gauges sum to %d, want 2", sum)
	}

	// Cancelling the running run returns 200 and frees the worker for
	// the queued one.
	if code := postJSON(t, srv.URL+"/v1/runs/"+first.ID+"/cancel", ``, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	waitFor(t, 10*time.Second, "cancel to land", func() bool {
		var got serve.Info
		getJSON(t, srv.URL+"/v1/runs/"+first.ID, &got)
		return got.State == serve.StateCancelled
	})
}

// TestAPISnapshotBeforeFirstCheckpoint: a queued run has no snapshot
// yet; the endpoint says 409 (pending — retry after the first
// checkpoint stride) rather than serving empty bytes, and a cancelled
// run that never checkpointed says 404.
func TestAPISnapshotBeforeFirstCheckpoint(t *testing.T) {
	m, err := serve.New(serve.Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(serve.NewAPI(m))
	defer srv.Close()

	long := `{"kind":"gap","seed":1,"steps":7,"max_generations":50000000}`
	var first, queued serve.Info
	if code := postJSON(t, srv.URL+"/v1/runs", long, &first); code != http.StatusCreated {
		t.Fatalf("first submit = %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/runs", long, &queued); code != http.StatusCreated {
		t.Fatalf("second submit = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/runs/"+queued.ID+"/snapshot", nil); code != http.StatusConflict {
		t.Fatalf("snapshot of queued run = %d, want 409", code)
	}
	var buf bytes.Buffer
	m.WriteMetrics(&buf)
	parsePrometheus(t, buf.String()) // direct render parses too
	postJSON(t, srv.URL+"/v1/runs/"+queued.ID+"/cancel", ``, nil)
	postJSON(t, srv.URL+"/v1/runs/"+first.ID+"/cancel", ``, nil)
	if code := getJSON(t, srv.URL+"/v1/runs/"+queued.ID+"/snapshot", nil); code != http.StatusNotFound {
		t.Fatalf("snapshot of cancelled never-run run = %d, want 404", code)
	}
}
