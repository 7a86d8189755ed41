package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP nocap_proves_ok_total proofs generated successfully
# TYPE nocap_proves_ok_total counter
nocap_proves_ok_total 10

# TYPE nocap_queue_depth gauge
nocap_queue_depth 3
nocap_kernel_calls_total{stage="rs-encode"} 140
nocap_kernel_calls_total{stage="merkle"} 14
nocap_tenant_queue_wait_ns_total{tenant="default"} 1000
nocap_tenant_queue_wait_ns_total{tenant="a b"} 500
`

const scrapeAfter = `nocap_proves_ok_total 25
nocap_queue_depth 1
nocap_kernel_calls_total{stage="rs-encode"} 420
nocap_kernel_calls_total{stage="merkle"} 42
nocap_tenant_queue_wait_ns_total{tenant="default"} 4000
nocap_tenant_queue_wait_ns_total{tenant="a b"} 500 1700000000000
nocap_proofcache_hits_total 7
nocap_prove_ns_total 1.5e+09
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`nocap_kernel_calls_total{stage="rs-encode"}`]; got != 140 {
		t.Errorf("labelled series = %g, want 140", got)
	}
	if got := after[`nocap_tenant_queue_wait_ns_total{tenant="a b"}`]; got != 500 {
		t.Errorf("series with a space in a label value and a timestamp = %g, want 500", got)
	}
	if got := after["nocap_prove_ns_total"]; got != 1.5e9 {
		t.Errorf("exponent value = %g, want 1.5e9", got)
	}

	d, err := promDelta(before, after)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"nocap_proves_ok_total":                    15,
		"nocap_queue_depth":                        -2, // a gauge may fall
		`nocap_kernel_calls_total{stage="merkle"}`: 28,
		"nocap_proofcache_hits_total":              7, // absent before: started at 0
	} {
		if d[series] != want {
			t.Errorf("delta of %s = %g, want %g", series, d[series], want)
		}
	}
	if got := d.family("nocap_kernel_calls_total"); got != 308 {
		t.Errorf("family sum over labels = %g, want 308", got)
	}
	if got := d.family("nocap_tenant_queue_wait_ns_total"); got != 3000 {
		t.Errorf("tenant family = %g, want 3000", got)
	}
	if got := d.family("nocap_kernel_calls"); got != 0 {
		t.Errorf("a name that is only a prefix of a family summed to %g, want 0", got)
	}
	if got := d.family("nocap_absent_total"); got != 0 {
		t.Errorf("an absent family summed to %g, want 0", got)
	}
}

func TestPromDeltaRejectsACounterGoingBackwards(t *testing.T) {
	before := promSample{"nocap_proves_ok_total": 10}
	after := promSample{"nocap_proves_ok_total": 4}
	if _, err := promDelta(before, after); err == nil {
		t.Error("a counter that fell was accepted")
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, text := range []string{"nocap_x", "nocap_x{a=\"b\" 1", "nocap_x notanumber"} {
		if _, err := parseProm(strings.NewReader(text)); err == nil {
			t.Errorf("parseProm(%q) succeeded", text)
		}
	}
}
