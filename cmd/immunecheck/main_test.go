package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// The Fig 2 table: only the vulnerable layout fails its certificate.
func TestCompareStylesFig2(t *testing.T) {
	var buf bytes.Buffer
	if err := compareStyles(context.Background(), &buf, "AB", 500, 5, 15, 1); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			rows[f[0]] = f[1]
		}
	}
	if rows["etched"] != "IMMUNE" || rows["compact"] != "IMMUNE" {
		t.Errorf("immune styles: etched %q, compact %q\n%s", rows["etched"], rows["compact"], buf.String())
	}
	if rows["vulnerable"] == "" || rows["vulnerable"] == "IMMUNE" {
		t.Errorf("vulnerable row = %q, want violations\n%s", rows["vulnerable"], buf.String())
	}
}

// Bad user input is an error before any work: no panic, no NaN yield,
// no fail rate from zero samples.
func TestCompareStylesRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		cell          string
		tubes, trials int
	}{
		{"A+", 100, 5}, // unparsable expression
		{"AB", 100, 0}, // no yield trials
		{"AB", 0, 5},   // no Monte Carlo tubes
		{"AB", -1, 5},
	} {
		var buf bytes.Buffer
		if err := compareStyles(context.Background(), &buf, tc.cell, tc.tubes, tc.trials, 15, 1); err == nil {
			t.Errorf("compareStyles(%q, tubes %d, trials %d) = nil, want an error", tc.cell, tc.tubes, tc.trials)
		}
		if buf.Len() != 0 {
			t.Errorf("%q: wrote output before rejecting:\n%s", tc.cell, buf.String())
		}
	}
}
