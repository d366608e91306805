package chatls

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/llm"
	"repro/internal/qorlog"
	"repro/internal/remotecache"
	"repro/internal/synth"
)

// newReplica assembles one simulated chatlsd replica: a remote-cache client
// pointed at the tier, a two-level result store over a fresh local memory
// store, and the replica's own checkpoint store.
func newReplica(t *testing.T, baseURL string, warnf func(string, ...any)) (*remotecache.Client, *remotecache.Tier, *synth.CheckpointStore) {
	t.Helper()
	client := remotecache.NewClient(remotecache.ClientConfig{
		BaseURL: baseURL,
		Warnf:   warnf,
	})
	tier := remotecache.NewTier(context.Background(), qorlog.NewMemoryStore(0), client)
	return client, tier, synth.NewCheckpointStore(0)
}

// scrapeCounter reads one counter/gauge value off the tier's /metrics page.
func scrapeCounter(t *testing.T, baseURL, name string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, fields[1])
			}
			return int64(v)
		}
	}
	t.Fatalf("metric %s not found on /metrics", name)
	return 0
}

// validScripts is the set of scripts among r's samples that the synthesis
// tool ran to a QoR: the ones a result store holds a record for.
func validScripts(r EvalResult) map[string]bool {
	uniq := map[string]bool{}
	for _, s := range r.Samples {
		if s.QoR != nil {
			uniq[s.Script] = true
		}
	}
	return uniq
}

// TestTwoReplicasShareResultsAndMatchSingleReplica is the distributed tier's
// headline guarantee, end to end: two replicas sharing one chatlscached
// evaluate the same Pass@k workload concurrently and produce results
// byte-identical to a storeless single-replica run. Replicas that miss the
// same key at once may both synthesize it; the tier, content-addressed,
// still ends up holding one record per unique (library, sources, script).
func TestTwoReplicasShareResultsAndMatchSingleReplica(t *testing.T) {
	const seed, k = 20250706, 5
	d := designs.RiscV32i()

	// The reference: one storeless, checkpointless, serial replica.
	want, err := RunPassKOpts(context.Background(), &RawPipeline{Model: llm.New(llm.GPT4o, seed)},
		d, k, testLib, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	srv := remotecache.NewServer(remotecache.ServerConfig{QoR: qorlog.NewMemoryStore(0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	warn := func(format string, args ...any) { t.Errorf("unexpected degradation: "+format, args...) }
	clientA, tierA, ckptA := newReplica(t, ts.URL, warn)
	clientB, tierB, ckptB := newReplica(t, ts.URL, warn)

	var wg sync.WaitGroup
	var gotA, gotB EvalResult
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		gotA, errA = RunPassKOpts(context.Background(), &RawPipeline{Model: llm.New(llm.GPT4o, seed)},
			d, k, testLib, EvalOptions{Workers: 2, Checkpoints: ckptA, Results: tierA})
	}()
	go func() {
		defer wg.Done()
		gotB, errB = RunPassKOpts(context.Background(), &RawPipeline{Model: llm.New(llm.GPT4o, seed)},
			d, k, testLib, EvalOptions{Workers: 2, Checkpoints: ckptB, Results: tierB})
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("replica runs failed: A=%v B=%v", errA, errB)
	}
	if !reflect.DeepEqual(gotA, want) {
		t.Errorf("replica A diverged from the storeless run:\nwant: %+v\ngot:  %+v", want, gotA)
	}
	if !reflect.DeepEqual(gotB, want) {
		t.Errorf("replica B diverged from the storeless run:\nwant: %+v\ngot:  %+v", want, gotB)
	}

	// Only samples whose script survived the tool publish a record, and a
	// record is addressed by its content, so the tier holds exactly one per
	// distinct valid script however the two replicas' puts interleaved.
	uniq := validScripts(want)
	if len(uniq) == 0 {
		t.Fatal("test needs at least one valid sample to share")
	}
	if recs := scrapeCounter(t, ts.URL, "remotecache_qor_records"); recs != int64(len(uniq)) {
		t.Errorf("tier holds %d records, want %d", recs, len(uniq))
	}

	if clientA.Degraded() || clientB.Degraded() {
		t.Error("no replica should have degraded with the tier alive")
	}
}

// TestSiblingReplicaIsServedFromTier is the tier's own benefit: replica A
// serves the raw Pass@5 workload over the seven benchmark designs first and
// publishes every valid sample's QoR; replica B, with cold local stores,
// then serves the same requests and synthesizes no valid script itself —
// each one is a remote hit. Both stay byte-identical to a storeless run.
func TestSiblingReplicaIsServedFromTier(t *testing.T) {
	const seed, k = 20250706, 5
	srv := remotecache.NewServer(remotecache.ServerConfig{QoR: qorlog.NewMemoryStore(0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	warn := func(format string, args ...any) { t.Errorf("unexpected degradation: "+format, args...) }
	clientA, tierA, ckptA := newReplica(t, ts.URL, warn)
	clientB, tierB, ckptB := newReplica(t, ts.URL, warn)

	ds := designs.Benchmarks()
	want := make([]EvalResult, len(ds))
	distinct := 0
	for i, d := range ds {
		var err error
		want[i], err = RunPassKOpts(context.Background(), &RawPipeline{Model: llm.New(llm.GPT4o, seed)},
			d, k, testLib, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(validScripts(want[i]))
		t.Logf("%s: %d distinct valid script(s)", d.Name, n)
		distinct += n
	}
	for _, r := range []struct {
		name string
		tier *remotecache.Tier
		ckpt *synth.CheckpointStore
	}{{"A", tierA, ckptA}, {"B", tierB, ckptB}} {
		for i, d := range ds {
			got, err := RunPassKOpts(context.Background(), &RawPipeline{Model: llm.New(llm.GPT4o, seed)},
				d, k, testLib, EvalOptions{Checkpoints: r.ckpt, Results: r.tier})
			if err != nil {
				t.Fatalf("replica %s on %s: %v", r.name, d.Name, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("replica %s on %s diverged from the storeless run:\nwant: %+v\ngot:  %+v", r.name, d.Name, want[i], got)
			}
		}
	}
	if distinct == 0 {
		t.Fatal("test needs at least one valid sample to share")
	}
	stA, stB := clientA.Stats(), clientB.Stats()
	if stA.QoRPuts != int64(distinct) {
		t.Errorf("replica A published %d records, want %d (one per distinct valid script)", stA.QoRPuts, distinct)
	}
	if stB.QoRHits != int64(distinct) {
		t.Errorf("replica B was served %d records from the tier, want %d", stB.QoRHits, distinct)
	}
	if stB.QoRPuts != 0 {
		t.Errorf("replica B published %d records, want 0 (it synthesized no valid script)", stB.QoRPuts)
	}
	if stA.Degraded || stB.Degraded {
		t.Error("no replica should have degraded with the tier alive")
	}
}

// tierKillPipeline wraps a pipeline and fires kill once, right before the
// sample at index at is customized — deterministically mid-run under the
// serial protocol.
type tierKillPipeline struct {
	inner *RawPipeline
	at    int
	once  sync.Once
	kill  func()
}

func (p *tierKillPipeline) Name() string { return p.inner.Name() }
func (p *tierKillPipeline) CustomizeResult(ctx context.Context, task *Task, sample int) (Customization, error) {
	if sample >= p.at {
		p.once.Do(p.kill)
	}
	return p.inner.CustomizeResult(ctx, task, sample)
}

// TestReplicaDegradesWhenTierDiesMidRun kills the cache server between two
// samples of a serial Pass@k run. The replica must finish every remaining
// sample local-only — no failed requests, results byte-identical to a run
// that never had a tier — and warn exactly once.
func TestReplicaDegradesWhenTierDiesMidRun(t *testing.T) {
	const seed, k, killAt = 20250706, 5, 2
	d := designs.RiscV32i()

	// Reference run: same wrapped pipeline (kill disarmed), no tier.
	ref := &tierKillPipeline{inner: &RawPipeline{Model: llm.New(llm.GPT4o, seed)}, at: killAt, kill: func() {}}
	want, err := RunPassKOpts(context.Background(), ref, d, k, testLib, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	srv := remotecache.NewServer(remotecache.ServerConfig{QoR: qorlog.NewMemoryStore(0)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var mu sync.Mutex
	var warnings []string
	client, tier, ckpt := newReplica(t, ts.URL, func(format string, args ...any) {
		mu.Lock()
		warnings = append(warnings, format)
		mu.Unlock()
	})

	p := &tierKillPipeline{
		inner: &RawPipeline{Model: llm.New(llm.GPT4o, seed)},
		at:    killAt,
		kill: func() {
			ts.CloseClientConnections()
			ts.Close()
		},
	}
	got, err := RunPassKOpts(context.Background(), p, d, k, testLib,
		EvalOptions{Checkpoints: ckpt, Results: tier})
	if err != nil {
		t.Fatalf("run must survive the tier dying mid-flight: %v", err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("degraded run diverged from the tierless run:\nwant: %+v\ngot:  %+v", want, got)
	}
	if !client.Degraded() {
		t.Error("client should be in sticky local-only mode after the tier died")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(warnings) != 1 {
		t.Errorf("degradation must warn exactly once, got %d warnings: %q", len(warnings), warnings)
	}
}
