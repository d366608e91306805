package main

import (
	"testing"
	"time"
)

func TestParseMetricsReadsHistograms(t *testing.T) {
	text := `# HELP chatlsd_customize_seconds end-to-end customize latency
# TYPE chatlsd_customize_seconds histogram
chatlsd_customize_seconds_bucket{le="0.005"} 0
chatlsd_customize_seconds_bucket{le="+Inf"} 8
chatlsd_customize_seconds_sum 0.3894619919999999
chatlsd_customize_seconds_count 8
chatlsd_batch_wait_ns_sum 1.1472793e+07
overload_limit 10

qorlog_hits_total 42
`
	before, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"chatlsd_customize_seconds_sum":                0.3894619919999999,
		"chatlsd_customize_seconds_count":              8,
		`chatlsd_customize_seconds_bucket{le="+Inf"}`:  8,
		`chatlsd_customize_seconds_bucket{le="0.005"}`: 0,
		"chatlsd_batch_wait_ns_sum":                    1.1472793e+07,
		"overload_limit":                               10,
		"qorlog_hits_total":                            42,
	} {
		if got, ok := before[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	after := map[string]float64{"chatlsd_customize_seconds_sum": 0.5, "chatlsd_customize_seconds_count": 10, "new_total": 3}
	d := delta(before, after)
	if got := 1000 * ratio(d["chatlsd_customize_seconds_sum"], d["chatlsd_customize_seconds_count"]); !near(got, 1000*(0.5-0.3894619919999999)/2) {
		t.Errorf("mean service time from deltas = %v", got)
	}
	if d["new_total"] != 3 {
		t.Error("a sample absent before must count from zero")
	}
	if _, err := parseMetrics("name_without_value\n"); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := parseMetrics("x notanumber\n"); err == nil {
		t.Error("non-numeric value accepted")
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime and stime are fields 14 and 15.
	stat := "4242 (chat lsd) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 25 0 0 20 0 9 0 100 1000000 500 18446744073709551615"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 175 * clockTick; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	if clockTick != 10*time.Millisecond {
		t.Error("clockTick must match the kernel's USER_HZ of 100")
	}
}
