package synthrag

import (
	"testing"

	"repro/internal/circuitmentor"
	"repro/internal/liberty"
)

// TestEmbedKeyDistinguishesSources: keys separate sources that share a
// prefix or differ only in the top module. The key is the (source, top) pair
// itself, so none of these may alias.
func TestEmbedKeyDistinguishesSources(t *testing.T) {
	pairs := [][2][2]string{
		{{"module a; endmodule", "a"}, {"module a; endmodule ", "a"}},
		{{"module a; endmodule", "a"}, {"module a; endmodule", "b"}},
		{{"abc", "t"}, {"abcabc", "t"}},
		{{"", "t"}, {"\x00", "t"}},
		{{"a\x00b", "c"}, {"a", "b\x00c"}},
	}
	for _, p := range pairs {
		if embedKey(p[0][0], p[0][1]) == embedKey(p[1][0], p[1][1]) {
			t.Errorf("embedKey(%q,%q) == embedKey(%q,%q)", p[0][0], p[0][1], p[1][0], p[1][1])
		}
	}
	if embedKey("module a; endmodule", "a") != embedKey("module a; endmodule", "a") {
		t.Error("identical inputs must produce identical keys")
	}
}

// TestRetrieveKeyFramesBoundaries: distinct requests sharing a byte prefix
// must produce distinct keys. The historical hazards: a trait containing NUL
// aliasing a split trait list, and a query float aliasing 8 bytes of trait
// text across the query/traits boundary.
func TestRetrieveKeyFramesBoundaries(t *testing.T) {
	type req struct {
		query  []float64
		traits []string
	}
	pairs := [][2]req{
		// One trait with an embedded NUL vs two traits.
		{{nil, []string{"a\x00b"}}, {nil, []string{"a", "b"}}},
		// Query/trait boundary: a float's 8 bytes vs the same bytes as trait text.
		{{[]float64{0}, []string{"x"}}, {nil, []string{"\x00\x00\x00\x00\x00\x00\x00\x00x"}}},
		{{[]float64{1, 2}, nil}, {[]float64{1}, []string{string(make([]byte, 8))}}},
		// Empty trailing trait vs no trailing trait.
		{{nil, []string{"a", ""}}, {nil, []string{"a"}}},
	}
	for _, p := range pairs {
		a := retrieveKey(p[0].query, p[0].traits, 5, 0.7, 0.3, 0.25)
		b := retrieveKey(p[1].query, p[1].traits, 5, 0.7, 0.3, 0.25)
		if a == b {
			t.Errorf("retrieveKey(%v,%q) == retrieveKey(%v,%q)", p[0].query, p[0].traits, p[1].query, p[1].traits)
		}
	}
	if retrieveKey([]float64{1}, []string{"t"}, 5, 0.7, 0.3, 0.25) !=
		retrieveKey([]float64{1}, []string{"t"}, 5, 0.7, 0.3, 0.25) {
		t.Error("identical requests must produce identical keys")
	}
	if retrieveKey([]float64{1}, []string{"t"}, 5, 0.7, 0.3, 0.25) ==
		retrieveKey([]float64{1}, []string{"t"}, 6, 0.7, 0.3, 0.25) {
		t.Error("k must participate in the key")
	}
}

// TestEnableCacheStartsEveryDesignMemoEmpty: re-enabling models a daemon
// restart, so the process-wide analysis memo must go cold with the database
// caches — the next analysis of a seen design is computed, not served.
func TestEnableCacheStartsEveryDesignMemoEmpty(t *testing.T) {
	const src = "module m (input a, input b, output y); assign y = a & b; endmodule"
	lib := liberty.Nangate45()
	analyze := func() (hit bool) {
		before := circuitmentor.Stats()
		if _, err := circuitmentor.Analyze(src, "m", 1.0, lib); err != nil {
			t.Fatal(err)
		}
		return circuitmentor.Stats().Hits == before.Hits+1
	}
	db := &Database{}
	db.EnableCache(1, 1)
	if analyze() {
		t.Error("first analysis after EnableCache was served from the memo")
	}
	if !analyze() {
		t.Error("repeat analysis was not served from the memo")
	}
	db.EnableCache(1, 1)
	if analyze() {
		t.Error("analysis after re-enabling was served from the memo")
	}
}
