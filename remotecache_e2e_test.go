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
// store, and a checkpoint store sharing elaboration state through the tier.
func newReplica(t *testing.T, baseURL, owner string, warnf func(string, ...any)) (*remotecache.Client, *remotecache.Tier, *synth.CheckpointStore) {
	t.Helper()
	client := remotecache.NewClient(remotecache.ClientConfig{
		BaseURL: baseURL,
		Owner:   owner,
		Warnf:   warnf,
	})
	tier := remotecache.NewTier(qorlog.NewMemoryStore(0), client)
	ckpt := synth.NewCheckpointStore(0)
	ckpt.SetRemote(client)
	return client, tier, ckpt
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

// TestTwoReplicasDedupAndMatchSingleReplica is the distributed tier's
// headline guarantee, end to end: two replicas sharing one chatlscached
// evaluate the same Pass@k workload concurrently, produce results
// byte-identical to a storeless single-replica run, and between them run
// the synthesis tool exactly once per unique (library, sources, script) —
// every published record on the tier corresponds to one fleet-wide
// synthesis, so the server-side put counter is the dedup ledger.
func TestTwoReplicasDedupAndMatchSingleReplica(t *testing.T) {
	const seed, k = 20250706, 5
	d := designs.RiscV32i()

	// The reference: one storeless, checkpointless, serial replica.
	want, err := RunPassKOpts(context.Background(), &RawPipeline{Model: llm.New(llm.GPT4o, seed)},
		d, k, testLib, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	blobs, err := remotecache.OpenBlobStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := remotecache.NewServer(remotecache.ServerConfig{
		QoR:   qorlog.NewMemoryStore(0),
		Blobs: blobs,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	warn := func(format string, args ...any) { t.Errorf("unexpected degradation: "+format, args...) }
	clientA, tierA, ckptA := newReplica(t, ts.URL, "replica-a", warn)
	clientB, tierB, ckptB := newReplica(t, ts.URL, "replica-b", warn)

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

	// Fleet-wide synthesis count == unique-key count. Only samples whose
	// script survived the tool publish a record, and leases guarantee each
	// unique script was synthesized by exactly one replica, so the tier's
	// put counter must equal the number of distinct valid scripts.
	uniq := map[string]bool{}
	for _, s := range want.Samples {
		if s.QoR != nil {
			uniq[s.Script] = true
		}
	}
	if len(uniq) == 0 {
		t.Fatal("test needs at least one valid sample to measure dedup")
	}
	puts := scrapeCounter(t, ts.URL, "remotecache_qor_puts_total")
	if puts != int64(len(uniq)) {
		t.Errorf("fleet-wide synthesis count = %d puts, want %d (one per unique valid script)", puts, len(uniq))
	}
	if recs := scrapeCounter(t, ts.URL, "remotecache_qor_records"); recs != int64(len(uniq)) {
		t.Errorf("tier holds %d records, want %d", recs, len(uniq))
	}

	stA, stB := clientA.Stats(), clientB.Stats()
	if stA.Degraded || stB.Degraded {
		t.Error("no replica should have degraded with the tier alive")
	}
	if stA.LeasesGranted+stB.LeasesGranted == 0 {
		t.Error("at least one lease should have been granted fleet-wide")
	}
	if stA.BlobPuts+stB.BlobPuts == 0 {
		t.Error("at least one elaboration checkpoint should have been published")
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
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var mu sync.Mutex
	var warnings []string
	client, tier, ckpt := newReplica(t, ts.URL, "replica-doomed", func(format string, args ...any) {
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
