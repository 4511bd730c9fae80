package workload

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestDebitCreditDefaults(t *testing.T) {
	cfg := DefaultDebitCreditConfig(500)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := NewDebitCredit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := g.Partitions()
	if len(parts) != 3 {
		t.Fatalf("clustered layout has %d partitions, want 3", len(parts))
	}
	// Table 4.1: 500 BRANCH/TELLER pages and 5 million ACCOUNT pages.
	if got := parts[DCBranch].NumPages(); got != 500 {
		t.Fatalf("BRANCH/TELLER pages = %d, want 500", got)
	}
	if got := parts[DCAccount].NumPages(); got != 5_000_000 {
		t.Fatalf("ACCOUNT pages = %d, want 5,000,000", got)
	}
}

func TestDebitCreditValidation(t *testing.T) {
	bad := DefaultDebitCreditConfig(100)
	bad.NumBranches = 0
	if _, err := NewDebitCredit(bad); err == nil {
		t.Fatal("expected error for zero branches")
	}
	bad = DefaultDebitCreditConfig(100)
	bad.HomeAccountProb = 1.5
	if _, err := NewDebitCredit(bad); err == nil {
		t.Fatal("expected error for bad K")
	}
	bad = DefaultDebitCreditConfig(100)
	bad.HistoryBlockFactor = 0
	if _, err := NewDebitCredit(bad); err == nil {
		t.Fatal("expected error for zero history block factor")
	}
}

func TestDebitCreditTransactionShape(t *testing.T) {
	g, err := NewDebitCredit(DefaultDebitCreditConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(1, "dc")
	for i := 0; i < 1000; i++ {
		tx := g.Next(0, s)
		if len(tx.Accesses) != 4 {
			t.Fatalf("tx has %d accesses, want 4", len(tx.Accesses))
		}
		for _, a := range tx.Accesses {
			if !a.Write {
				t.Fatal("Debit-Credit accesses must all be writes")
			}
		}
		// Order: ACCOUNT, HISTORY, TELLER, BRANCH.
		if tx.Accesses[0].Partition != DCAccount {
			t.Fatal("first access must be ACCOUNT")
		}
		if tx.Accesses[1].Partition != g.HistoryPartition() {
			t.Fatal("second access must be HISTORY")
		}
		// With clustering, teller and branch share the page.
		if pageOf(g, tx.Accesses[2]) != pageOf(g, tx.Accesses[3]) {
			t.Fatal("clustered TELLER and BRANCH must share a page")
		}
		// Only three distinct pages.
		distinct := map[[2]int64]struct{}{}
		for _, a := range tx.Accesses {
			distinct[[2]int64{int64(a.Partition), pageOf(g, a)}] = struct{}{}
		}
		if len(distinct) != 3 {
			t.Fatalf("tx touches %d distinct pages, want 3", len(distinct))
		}
	}
}

func TestDebitCreditHistoryAppends(t *testing.T) {
	g, _ := NewDebitCredit(DefaultDebitCreditConfig(500))
	s := rng.NewStream(2, "dc")
	for i := 0; i < 100; i++ {
		tx := g.Next(0, s)
		h := tx.Accesses[1]
		if h.Object != int64(i) {
			t.Fatalf("history append %d went to object %d", i, h.Object)
		}
		if page := pageOf(g, h); page != int64(i/20) {
			t.Fatalf("history page = %d for record %d", page, i)
		}
	}
}

func TestDebitCreditHomeAccountFraction(t *testing.T) {
	cfg := DefaultDebitCreditConfig(500)
	cfg.NumAccounts = 5_000_000 // smaller for test speed
	g, err := NewDebitCredit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(3, "dc")
	accPerBr := cfg.NumAccounts / cfg.NumBranches
	home, n := 0, 20000
	for i := 0; i < n; i++ {
		tx := g.Next(0, s)
		accountBranch := tx.Accesses[0].Object / accPerBr
		branchPage := pageOf(g, tx.Accesses[3]) // clustered: page == branch id
		if accountBranch == branchPage {
			home++
		}
	}
	frac := float64(home) / float64(n)
	if math.Abs(frac-0.85) > 0.01 {
		t.Fatalf("home-account fraction = %v, want ~0.85", frac)
	}
}

func TestDebitCreditUnclustered(t *testing.T) {
	cfg := DefaultDebitCreditConfig(500)
	cfg.ClusterBranchTeller = false
	g, err := NewDebitCredit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Partitions()) != 4 {
		t.Fatalf("unclustered layout has %d partitions, want 4", len(g.Partitions()))
	}
	s := rng.NewStream(4, "dc")
	tx := g.Next(0, s)
	if len(tx.Accesses) != 4 {
		t.Fatalf("tx has %d accesses", len(tx.Accesses))
	}
	// Four distinct (partition, page) pairs: no clustering.
	distinct := map[[2]int64]struct{}{}
	for _, a := range tx.Accesses {
		distinct[[2]int64{int64(a.Partition), pageOf(g, a)}] = struct{}{}
	}
	if len(distinct) != 4 {
		t.Fatalf("tx touches %d distinct pages, want 4", len(distinct))
	}
}

func TestDebitCreditTellerBelongsToBranch(t *testing.T) {
	cfg := DefaultDebitCreditConfig(500)
	g, _ := NewDebitCredit(cfg)
	s := rng.NewStream(5, "dc")
	perPage := 1 + cfg.TellersPerBranch
	for i := 0; i < 1000; i++ {
		tx := g.Next(0, s)
		branch, teller := tx.Accesses[2].Object, tx.Accesses[3].Object
		if branch%perPage != 0 {
			t.Fatalf("branch object %d not page-aligned", branch)
		}
		if teller/perPage != branch/perPage {
			t.Fatalf("teller %d not in branch %d's page", teller, branch)
		}
		if teller == branch {
			t.Fatal("teller object collided with branch object")
		}
	}
}

func TestDebitCreditSingleBranch(t *testing.T) {
	cfg := DefaultDebitCreditConfig(100)
	cfg.NumBranches = 1
	cfg.NumAccounts = 1000
	g, err := NewDebitCredit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(6, "dc")
	for i := 0; i < 100; i++ {
		tx := g.Next(0, s)
		if tx.Accesses[0].Object >= 1000 {
			t.Fatal("account out of range with a single branch")
		}
	}
}

func TestDebitCreditTypeInfo(t *testing.T) {
	g, _ := NewDebitCredit(DefaultDebitCreditConfig(250))
	if g.NumTypes() != 1 {
		t.Fatalf("NumTypes = %d", g.NumTypes())
	}
	name, rate := g.TypeInfo(0)
	if name != "debit-credit" || rate != 250 {
		t.Fatalf("TypeInfo = %q, %v", name, rate)
	}
}

// TestDebitCreditAccountSkew: the AccountSkew spec applies to the
// within-branch account draw, so the hot set is the first accounts of every
// branch — the K% home-branch correlation must survive unchanged.
func TestDebitCreditAccountSkew(t *testing.T) {
	cfg := DefaultDebitCreditConfig(500)
	cfg.NumAccounts = 5_000_000
	cfg.AccountSkew = AccessSpec{Kind: AccessHotSpot, HotAccessFrac: 0.9, HotDataFrac: 0.01}
	g, err := NewDebitCredit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.NewStream(17, "dc")
	accPerBr := cfg.NumAccounts / cfg.NumBranches
	hotPerBr := int64(0.01 * float64(accPerBr))
	hot, n := 0, 50_000
	for i := 0; i < n; i++ {
		tx := g.Next(0, s)
		if within := tx.Accesses[0].Object % accPerBr; within < hotPerBr {
			hot++
		}
	}
	if frac := float64(hot) / float64(n); math.Abs(frac-0.9) > 0.01 {
		t.Fatalf("hot within-branch fraction = %v, want ~0.9", frac)
	}
}

// TestDebitCreditRejectsBadSkew: an invalid AccountSkew fails construction.
func TestDebitCreditRejectsBadSkew(t *testing.T) {
	cfg := DefaultDebitCreditConfig(100)
	cfg.AccountSkew = AccessSpec{Kind: AccessZipf, Theta: 1.5}
	if _, err := NewDebitCredit(cfg); err == nil {
		t.Fatal("invalid AccountSkew accepted")
	}
}

// pageOf maps a Debit-Credit access to its page, as the engine does.
func pageOf(g *DebitCredit, a Access) int64 {
	return g.Partitions()[a.Partition].PageOf(a.Object)
}
