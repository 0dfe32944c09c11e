package signature

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// genPredicate builds a random conjunctive/disjunctive predicate over the
// items table together with a permuted-but-equivalent twin: same atoms,
// shuffled conjunct order and randomly mirrored comparisons, with all
// constants replaced by fresh random values (constants are wildcarded, so
// they must not matter).
func genPredicate(r *rand.Rand, atoms int) (a, b string) {
	cols := []string{"id", "name", "qty"}
	ops := []string{"=", "<", "<=", ">", ">="}
	type atom struct{ col, op string }
	var list []atom
	for i := 0; i < atoms; i++ {
		list = append(list, atom{col: cols[r.Intn(len(cols))], op: ops[r.Intn(len(ops))]})
	}
	render := func(at atom, val int, mirror bool) string {
		if !mirror {
			return fmt.Sprintf("%s %s %d", at.col, at.op, val)
		}
		m := map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
		return fmt.Sprintf("%d %s %s", val, m[at.op], at.col)
	}
	var partsA []string
	for _, at := range list {
		partsA = append(partsA, render(at, r.Intn(1000), false))
	}
	perm := r.Perm(len(list))
	var partsB []string
	for _, i := range perm {
		partsB = append(partsB, render(list[i], r.Intn(1000), r.Intn(2) == 0))
	}
	return strings.Join(partsA, " AND "), strings.Join(partsB, " AND ")
}

// TestSignatureInvarianceFuzz checks, over many random predicates, that the
// logical signature is invariant under (a) constant substitution,
// (b) conjunct permutation and (c) comparison mirroring — and that adding
// an extra atom changes it.
func TestSignatureInvarianceFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	cat := testCatalog(t)
	for trial := 0; trial < 300; trial++ {
		atoms := 1 + r.Intn(5)
		predA, predB := genPredicate(r, atoms)
		sqlA := "SELECT name FROM items WHERE " + predA
		sqlB := "SELECT name FROM items WHERE " + predB
		sa := logicalSig(t, cat, sqlA)
		sb := logicalSig(t, cat, sqlB)
		if sa != sb {
			t.Fatalf("trial %d: equivalent predicates disagree:\n  %s\n  %s", trial, sqlA, sqlB)
		}
		sqlC := sqlA + " AND qty = 1"
		if sc := logicalSig(t, cat, sqlC); sc == sa {
			// Adding a duplicate atom can legitimately collide when the
			// original already contains "qty = <const>" (sets of sorted
			// canonical conjuncts): only fail when no qty-equality existed.
			if !strings.Contains(predA, "qty =") {
				t.Fatalf("trial %d: extra conjunct did not change signature: %s", trial, sqlC)
			}
		}
	}
}

// TestSignatureDispersion ensures distinct canonical templates never share
// a signature across a broad grid of generated queries (two different SQL
// texts with the same canonical form — e.g. swapped symmetric conjuncts —
// are expected to share one).
func TestSignatureDispersion(t *testing.T) {
	cat := testCatalog(t)
	seen := map[ID]string{} // signature -> canonical text
	cols := []string{"id", "name", "qty"}
	n := 0
	for _, c1 := range cols {
		for _, c2 := range cols {
			if c1 == c2 {
				continue
			}
			for _, op := range []string{"=", "<", ">"} {
				for _, proj := range []string{"id", "name", "qty", "*"} {
					sql := fmt.Sprintf("SELECT %s FROM items WHERE %s %s 1 AND %s > 2", proj, c1, op, c2)
					id, canon := Logical(logicalOf(t, cat, sql))
					if prev, dup := seen[id]; dup && prev != canon {
						t.Fatalf("signature collision:\n  %s\n  %s", prev, canon)
					}
					seen[id] = canon
					n++
				}
			}
		}
	}
	if n < 50 {
		t.Fatalf("dispersion test too small: %d", n)
	}
}

// TestTransactionSignatureGolden pins Transaction to values computed before
// it streamed FNV-1a over the hex forms instead of hashing a built string:
// persisted LATs and rules that group by a transaction signature must see
// the same values, and so must TxnTracker's running hashes (Then).
func TestTransactionSignatureGolden(t *testing.T) {
	for _, tc := range []struct {
		ids  []ID
		want ID
	}{
		{nil, 0xcbf29ce484222325},
		{[]ID{0}, 0x02d2f7fc03a66bba},
		{[]ID{^ID(0)}, 0x07ebdd381ca792ba},
		{[]ID{0x0123456789abcdef}, 0x353d42cf45a67bf2},
		{[]ID{7, 7, 7}, 0xf3f23dbedaf51539},
		{[]ID{0, ^ID(0), 0}, 0x5d06f519baee0538},
		{[]ID{1, 2, 3}, 0xb0cbc709ba4a9090},
		{[]ID{3, 2, 1}, 0xaf2e6f10b680435c},
		{[]ID{0xdeadbeef, 0xcafebabe00000000}, 0xad8ec6d48ac5c754},
	} {
		if got := Transaction(tc.ids); got != tc.want {
			t.Errorf("Transaction(%v) = %s, want %s", tc.ids, got, tc.want)
		}
		sig := EmptyTransaction
		for _, id := range tc.ids {
			sig = sig.Then(id)
		}
		if sig != tc.want {
			t.Errorf("Then over %v = %s, want %s", tc.ids, sig, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { EmptyTransaction.Then(^ID(0)) }); n != 0 {
		t.Errorf("Then allocates %.0f times, want 0", n)
	}
}

// TestIDStringMatchesSprintf checks the fmt-free hex rendering against the
// format it replaced, on edge values and random ones.
func TestIDStringMatchesSprintf(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ids := []ID{0, 1, 0xf, 0x10, ^ID(0), 1 << 63, 0x0123456789abcdef}
	for i := 0; i < 1000; i++ {
		ids = append(ids, ID(r.Uint64()))
	}
	for _, id := range ids {
		if got, want := id.String(), fmt.Sprintf("%016x", uint64(id)); got != want {
			t.Fatalf("ID(%#x).String() = %q, want %q", uint64(id), got, want)
		}
	}
}
