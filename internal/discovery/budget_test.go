package discovery

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"valentine/internal/core"
)

// TestSearchBestEffortMatchesSearchWithoutBudget: with a generous context
// the best-effort entry point must be bit-identical to the plain search
// (SearchContext, or SearchBruteForce when brute) — it is the same
// pipeline, only the error contract differs — and report the pinned
// snapshot's epoch.
func TestSearchBestEffortMatchesSearchWithoutBudget(t *testing.T) {
	ix, q := contextTestIndex(t)
	for _, brute := range []bool{false, true} {
		var want []Result
		var err error
		if brute {
			want, err = ix.SearchBruteForce(q, ModeUnion, 5)
		} else {
			want, err = ix.SearchContext(context.Background(), q, ModeUnion, 5)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, epoch, partial, err := ix.SearchBestEffortContext(context.Background(), q, ModeUnion, 5, brute)
		if err != nil || partial {
			t.Fatalf("brute=%v: err=%v partial=%v", brute, err, partial)
		}
		if epoch != ix.Epoch() {
			t.Fatalf("brute=%v: pinned epoch %d != current epoch %d on a quiescent index", brute, epoch, ix.Epoch())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("brute=%v: best-effort diverges from plain search\ngot  %v\nwant %v", brute, got, want)
		}
	}
}

// TestSearchBestEffortBudgetExpiry: a spent budget surfaces partial=true
// with the deadline error alongside (the caller classifies it via
// core.IsBudgetExpiry); the outer context staying live is what makes it
// best-effort rather than failure.
func TestSearchBestEffortBudgetExpiry(t *testing.T) {
	ix, q := contextTestIndex(t)
	outer := context.Background()
	qctx, qcancel := core.BudgetContext(outer, time.Nanosecond)
	defer qcancel()
	time.Sleep(time.Millisecond) // deterministically spent
	_, _, partial, err := ix.SearchBestEffortContext(qctx, q, ModeJoin, 5, false)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !partial {
		t.Fatal("partial flag not set on budget expiry")
	}
	if !core.IsBudgetExpiry(outer, err) {
		t.Fatal("expiry with a live outer context must classify as best-effort")
	}
	// A dead outer request is NOT a budget case.
	canceled, cancel := context.WithCancel(outer)
	cancel()
	_, _, _, err = ix.SearchBestEffortContext(canceled, q, ModeJoin, 5, false)
	if core.IsBudgetExpiry(canceled, err) {
		t.Fatal("cancellation must not classify as budget expiry")
	}
}
