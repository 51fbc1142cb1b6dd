package main

import (
	"bytes"
	"strings"
	"testing"
)

// The gate over the three-package fixture module (cmd/app, internal/lib,
// internal/testutil): which functions fail it, what an allowlist entry
// covers, and which entries are themselves errors.
func TestGateOnFixture(t *testing.T) {
	cases := []struct {
		name      string
		allow     string
		exit      int
		reported  []string // must appear on stderr
		forgotten []string // must not
	}{
		{
			name:      "a gated dead function fails; a test-support package is exempt by rule",
			exit:      1,
			reported:  []string{"fixture/internal/lib.Dead", "fixture/internal/lib.Kept", "fixture/internal/lib.keptHelper"},
			forgotten: []string{"fixture/internal/lib.Used", "testutil"},
		},
		{
			name:      "an allowlisted function roots its callees",
			allow:     "fixture/internal/lib.Dead # reason\nfixture/internal/lib.Kept # reason\n",
			exit:      0,
			forgotten: []string{"keptHelper", "testutil"},
		},
		{
			name:     "an allowlist entry that is reachable anyway is stale",
			allow:    "fixture/internal/lib.Dead\nfixture/internal/lib.Kept\nfixture/internal/lib.Used\n",
			exit:     1,
			reported: []string{"fixture/internal/lib.Used  (allow.txt entry that is not dead"},
		},
		{
			name:     "an allowlist entry that names no function is stale",
			allow:    "fixture/internal/lib.Dead\nfixture/internal/lib.Kept\nfixture/internal/lib.Gone\n",
			exit:     1,
			reported: []string{"fixture/internal/lib.Gone  (allow.txt entry that is not dead"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if exit := run("testdata/fixture", c.allow, &stdout, &stderr); exit != c.exit {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", exit, c.exit, &stdout, &stderr)
			}
			for _, want := range c.reported {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr does not report %q:\n%s", want, &stderr)
				}
			}
			for _, not := range c.forgotten {
				if strings.Contains(stderr.String(), not) {
					t.Errorf("stderr reports %q:\n%s", not, &stderr)
				}
			}
		})
	}
}
