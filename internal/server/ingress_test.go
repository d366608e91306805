package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/inputlimits"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synthrag"
)

// TestIngressRejections exercises the /v1/customize trust boundary: every
// malformed-input class maps to its documented status code, never a 500,
// and each rejection increments its metrics counter.
func TestIngressRejections(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, MaxBodyBytes: 512, MaxRequirementLen: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"oversized body", `{"design":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
		{"not json", "not json at all", http.StatusBadRequest},
		{"empty body", "", http.StatusBadRequest},
		{"unknown field", `{"design":"riscv32i","bogus":1}`, http.StatusBadRequest},
		{"trailing data", `{"design":"riscv32i"} extra`, http.StatusBadRequest},
		{"wrong field type", `{"design":42}`, http.StatusBadRequest},
		{"long requirement", `{"design":"riscv32i","requirement":"` + strings.Repeat("r", 100) + `"}`, http.StatusUnprocessableEntity},
		{"negative k", `{"design":"riscv32i","k":-3}`, http.StatusUnprocessableEntity},
		{"huge k", `{"design":"riscv32i","k":10000}`, http.StatusUnprocessableEntity},
		{"bad pipeline", `{"design":"riscv32i","pipeline":"dalle"}`, http.StatusUnprocessableEntity},
		{"unknown design", `{"design":"noexist"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postCustomize(t, ts.URL, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("rejection body is not an error JSON: %q", body)
			}
		})
	}

	if v := metricValue(t, ts.URL, "chatlsd_input_rejected_body_too_large_total"); v != 1 {
		t.Errorf("body_too_large counter = %v, want 1", v)
	}
	if v := metricValue(t, ts.URL, "chatlsd_input_rejected_bad_json_total"); v != 5 {
		t.Errorf("bad_json counter = %v, want 5", v)
	}
	if v := metricValue(t, ts.URL, "chatlsd_input_rejected_invalid_total"); v != 4 {
		t.Errorf("invalid counter = %v, want 4", v)
	}

	// The process stays healthy after every rejection.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after rejections: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestHealthzEchoesLimits: /healthz reports the configured ingress limits
// and the shipped parser budgets as JSON.
func TestHealthzEchoesLimits(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 2048, MaxRequirementLen: 128, MaxK: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var hz healthzResponse
	if err := json.Unmarshal(b, &hz); err != nil {
		t.Fatalf("healthz is not JSON: %v (%s)", err, b)
	}
	if hz.Status != "ok" || hz.MaxBodyBytes != 2048 || hz.MaxRequirementLen != 128 || hz.MaxK != 3 {
		t.Fatalf("healthz echo = %+v", hz)
	}
	// The three parser surfaces, each with its shipped budget; no other.
	surfaces := []string{inputlimits.SurfaceVerilog, inputlimits.SurfaceScript, inputlimits.SurfaceCypher}
	if len(hz.ParserBudgets) != len(surfaces) {
		t.Fatalf("healthz parser budgets = %+v, want exactly %v", hz.ParserBudgets, surfaces)
	}
	for _, surface := range surfaces {
		if got, want := hz.ParserBudgets[surface], inputlimits.For(surface); got != want {
			t.Fatalf("healthz %s budget = %+v, want %+v", surface, got, want)
		}
	}
}

// TestHealthzEchoesExpertDraftsSwept: /healthz says whether the database
// build swept the palette — 0 when every expert entry came from the
// checked-in table (the shipped library), all eleven when the library the
// table was swept under has changed.
func TestHealthzEchoesExpertDraftsSwept(t *testing.T) {
	changed := liberty.Nangate45()
	changed.Cell("NAND2_X1").Area += 0.01
	for _, c := range []struct {
		name string
		lib  *liberty.Library
		want int
	}{{"shipped library", testLib, 0}, {"changed library", changed, 11}} {
		t.Run(c.name, func(t *testing.T) {
			db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, Lib: c.lib, IndexOnly: []*designs.Design{}})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Model: llm.New(llm.GPT4o, 2), DB: db, Lib: c.lib})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if got := getHealthz(t, ts.URL).ExpertDraftsSwept; got != c.want {
				t.Errorf("expert_drafts_swept = %d, want %d", got, c.want)
			}
		})
	}
}

// FuzzCustomizeRequest asserts the request decode/validate boundary never
// panics and always classifies its outcome as one of the documented status
// codes. It targets decodeCustomize directly rather than the full handler,
// so a fuzzer that stumbles onto a valid design name cannot trigger an
// expensive synthesis run.
func FuzzCustomizeRequest(f *testing.F) {
	seeds := []string{
		`{"design":"riscv32i"}`,
		`{"design":"riscv32i","requirement":"optimize for area","pipeline":"chatls","k":3}`,
		`{"design":"riscv32i","k":10000}`,
		`{"design":"riscv32i","bogus":1}`,
		`{"design":42}`,
		`{"design":"a"} trailing`,
		`not json`,
		``,
		`{"design":"` + strings.Repeat("x", 300) + `"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	srv := &Server{cfg: Config{DefaultK: 1, MaxK: 10, MaxRequirementLen: 256, MaxBodyBytes: 4096}}
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/customize", strings.NewReader(body))
		req, code, err := srv.decodeCustomize(httptest.NewRecorder(), r)
		switch code {
		case http.StatusOK:
			if err != nil {
				t.Fatalf("status 200 with error %v", err)
			}
			if req.K < 1 || req.K > srv.cfg.MaxK {
				t.Fatalf("accepted k=%d outside [1,%d]", req.K, srv.cfg.MaxK)
			}
			if req.Requirement == "" || req.Pipeline == "" {
				t.Fatalf("accepted request missing defaults: %+v", req)
			}
		case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusRequestEntityTooLarge:
			if err == nil {
				t.Fatalf("rejection status %d without error", code)
			}
		default:
			t.Fatalf("undocumented status %d (err %v)", code, err)
		}
	})
}
