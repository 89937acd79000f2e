package main

// CLI tests of the -epsilon flag (match and discover): validation at the
// flag boundary, the approximate-output note, and the epsilon-zero
// exactness contract.

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestCmdFlagsRejectBadEpsilonAndBudget(t *testing.T) {
	dir, query := writeCorpusDir(t)
	target := filepath.Join(dir, "related_a.csv")
	for _, eps := range []string{"-0.1", "1", "1.5", "NaN"} {
		if err := cmdDiscover([]string{"-query", query, "-dir", dir, "-epsilon", eps}); err == nil {
			t.Errorf("discover -epsilon %s: expected validation error", eps)
		}
		if err := cmdMatch([]string{"-source", query, "-target", target, "-epsilon", eps}); err == nil {
			t.Errorf("match -epsilon %s: expected validation error", eps)
		}
	}
	if err := cmdDiscover([]string{"-query", query, "-dir", dir, "-budget", "-5ms"}); err == nil {
		t.Error("discover -budget -5ms: expected validation error")
	}
	if err := cmdMatch([]string{"-source", query, "-target", target, "-budget", "-5ms"}); err == nil {
		t.Error("match -budget -5ms: expected validation error")
	}
}

// TestCmdDiscoverEpsilonNote: a nonzero epsilon marks the output
// approximate; epsilon zero stays byte-identical to the exact cascade.
func TestCmdDiscoverEpsilonNote(t *testing.T) {
	dir, query := writeCorpusDir(t)
	base := []string{"-query", query, "-dir", dir, "-mode", "union", "-method", "coma-instance", "-top", "3"}
	approx := captureStdout(t, func() error { return cmdDiscover(append(base, "-epsilon", "0.2")) })
	if !strings.Contains(approx, "approximate: scores within 0.2") {
		t.Fatalf("missing approximate note:\n%s", approx)
	}
	exactDefault := captureStdout(t, func() error { return cmdDiscover(base) })
	exactZero := captureStdout(t, func() error { return cmdDiscover(append(base, "-epsilon", "0")) })
	if exactDefault != exactZero {
		t.Fatalf("-epsilon 0 output diverges from the default\n--- default ---\n%s--- epsilon 0 ---\n%s", exactDefault, exactZero)
	}
}

// TestCmdMatchEpsilonAndVerbose: the match command cascades against -top —
// -v shows the per-matcher counters with pairs pruned, -epsilon adds the
// approximate note, and at epsilon zero the printed top-k is exactly the
// full ranking's prefix. A matcher without a cascade never claims
// approximation.
func TestCmdMatchEpsilonAndVerbose(t *testing.T) {
	dir, query := writeCorpusDir(t)
	target := filepath.Join(dir, "related_a.csv")
	base := []string{"-method", "jaccard-levenshtein", "-source", query, "-target", target, "-top", "3"}
	out := captureStdout(t, func() error { return cmdMatch(append(base, "-epsilon", "0.3", "-v")) })
	if !strings.Contains(out, "approximate: scores within 0.3") {
		t.Fatalf("missing approximate note:\n%s", out)
	}
	counters := regexp.MustCompile(`jaccard-levenshtein bounded=\d+ pruned=(\d+)`).FindStringSubmatch(out)
	if !strings.Contains(out, "engine:") || counters == nil {
		t.Fatalf("missing per-matcher engine stats:\n%s", out)
	}
	if counters[1] == "0" {
		t.Fatalf("the cascade pruned nothing at -top 3:\n%s", out)
	}
	exact := captureStdout(t, func() error { return cmdMatch(append(base, "-epsilon", "0")) })
	if want := fullMatchListing(t, "jaccard-levenshtein", query, target, 3); !strings.HasSuffix(exact, "\n"+want) {
		t.Fatalf("epsilon 0 top 3 is not the full ranking's prefix\n--- match ---\n%s--- full top 3 ---\n%s", exact, want)
	}
	plain := captureStdout(t, func() error {
		return cmdMatch([]string{"-method", "coma-schema", "-source", query, "-target", target, "-epsilon", "0.3"})
	})
	if strings.Contains(plain, "approximate:") {
		t.Fatalf("a matcher without a cascade claimed approximation:\n%s", plain)
	}
}
