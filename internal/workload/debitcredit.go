package workload

import (
	"fmt"

	"repro/internal/rng"
)

// Partition indices produced by the Debit-Credit generator. With clustering
// (the paper's default, section 4.1) BRANCH and TELLER share one partition
// whose pages each hold one branch record plus its tellers, so a transaction
// touches only three distinct pages.
const (
	DCAccount = 0 // ACCOUNT partition
	DCBranch  = 1 // BRANCH/TELLER partition (clustered) or BRANCH (unclustered)
	DCTeller  = 2 // TELLER partition (unclustered only)
)

// DebitCreditConfig parameterizes the Debit-Credit benchmark generator
// (section 3.1, [An85]). The zero value is not valid; use
// DefaultDebitCreditConfig for the paper's Table 4.1 settings.
type DebitCreditConfig struct {
	NumBranches      int64
	TellersPerBranch int64
	NumAccounts      int64

	AccountBlockFactor int // objects per ACCOUNT page (10 in Table 4.1)
	TellerBlockFactor  int // objects per TELLER page, unclustered (10)
	HistoryBlockFactor int // records per HISTORY page (20)

	// HomeAccountProb is K%: the probability an ACCOUNT access goes to an
	// account of the selected branch ([An85] uses 0.85).
	HomeAccountProb float64

	// ClusterBranchTeller stores TELLER records in their BRANCH record's
	// page, reducing page accesses per transaction from four to three.
	ClusterBranchTeller bool

	// AccountSkew is the access distribution of the within-branch account
	// draw (the zero value is uniform, the benchmark's definition). Skew is
	// applied inside the selected branch, preserving the K% home-branch
	// correlation: the hot set is the first accounts of every branch, i.e.
	// HotDataFrac × (accounts/branch) ÷ block factor hot pages per branch.
	AccountSkew AccessSpec

	ArrivalRate float64 // transactions per second
}

// DefaultDebitCreditConfig returns the Table 4.1 parameter settings: 500
// branches, 10 tellers/branch, 50M accounts, block factors 10/10/20, K=85%,
// BRANCH-TELLER clustering on.
func DefaultDebitCreditConfig(arrivalRate float64) DebitCreditConfig {
	return DebitCreditConfig{
		NumBranches:         500,
		TellersPerBranch:    10,
		NumAccounts:         50_000_000,
		AccountBlockFactor:  10,
		TellerBlockFactor:   10,
		HistoryBlockFactor:  20,
		HomeAccountProb:     0.85,
		ClusterBranchTeller: true,
		ArrivalRate:         arrivalRate,
	}
}

// Validate checks the configuration.
func (c *DebitCreditConfig) Validate() error {
	switch {
	case c.NumBranches <= 0:
		return fmt.Errorf("workload: debit-credit: NumBranches = %d", c.NumBranches)
	case c.TellersPerBranch <= 0:
		return fmt.Errorf("workload: debit-credit: TellersPerBranch = %d", c.TellersPerBranch)
	case c.NumAccounts < c.NumBranches:
		return fmt.Errorf("workload: debit-credit: NumAccounts = %d < NumBranches = %d", c.NumAccounts, c.NumBranches)
	case c.AccountBlockFactor <= 0 || c.TellerBlockFactor <= 0 || c.HistoryBlockFactor <= 0:
		return fmt.Errorf("workload: debit-credit: non-positive block factor")
	case c.HomeAccountProb < 0 || c.HomeAccountProb > 1:
		return fmt.Errorf("workload: debit-credit: HomeAccountProb = %v", c.HomeAccountProb)
	case c.ArrivalRate < 0:
		return fmt.Errorf("workload: debit-credit: ArrivalRate = %v", c.ArrivalRate)
	}
	return c.AccountSkew.Validate()
}

// DebitCredit generates the Debit-Credit workload: a single transaction type
// with four object accesses (ACCOUNT, HISTORY, TELLER, BRANCH — the small
// record types last to minimize their lock holding time), 100% updates, and
// a sequentially appended HISTORY file.
type DebitCredit struct {
	cfg         DebitCreditConfig
	partitions  []Partition
	accPerBr    int64
	accDist     AccessDist
	historyTail int64
	historyPart int
}

// NewDebitCredit validates the configuration and builds the generator.
func NewDebitCredit(cfg DebitCreditConfig) (*DebitCredit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &DebitCredit{cfg: cfg, accPerBr: cfg.NumAccounts / cfg.NumBranches}
	var err error
	if g.accDist, err = cfg.AccountSkew.New(); err != nil {
		return nil, err
	}

	account := Partition{
		Name:        "ACCOUNT",
		NumObjects:  cfg.NumAccounts,
		BlockFactor: cfg.AccountBlockFactor,
	}
	history := Partition{
		Name:        "HISTORY",
		NumObjects:  1 << 50, // append-only; effectively unbounded
		BlockFactor: cfg.HistoryBlockFactor,
		Sequential:  true,
	}
	if cfg.ClusterBranchTeller {
		// One page per branch: the branch record plus its tellers.
		bt := Partition{
			Name:        "BRANCH/TELLER",
			NumObjects:  cfg.NumBranches * (1 + cfg.TellersPerBranch),
			BlockFactor: int(1 + cfg.TellersPerBranch),
		}
		g.partitions = []Partition{account, bt, history}
		g.historyPart = 2
	} else {
		branch := Partition{Name: "BRANCH", NumObjects: cfg.NumBranches, BlockFactor: 1}
		teller := Partition{
			Name:        "TELLER",
			NumObjects:  cfg.NumBranches * cfg.TellersPerBranch,
			BlockFactor: cfg.TellerBlockFactor,
		}
		g.partitions = []Partition{account, branch, teller, history}
		g.historyPart = 3
	}
	return g, nil
}

// Partitions returns the generator's database partitions, in the order used
// by the Access.Partition indices it emits.
func (g *DebitCredit) Partitions() []Partition { return g.partitions }

// HistoryPartition returns the index of the HISTORY partition.
func (g *DebitCredit) HistoryPartition() int { return g.historyPart }

// NumTypes implements Generator. Debit-Credit has one transaction type.
func (g *DebitCredit) NumTypes() int { return 1 }

// TypeInfo implements Generator.
func (g *DebitCredit) TypeInfo(int) (string, float64) {
	return "debit-credit", g.cfg.ArrivalRate
}

// Next implements Generator. Record types are referenced in the same order
// in every transaction (ACCOUNT, HISTORY, BRANCH, TELLER — the small record
// types last to keep their lock holding times short), so no deadlocks can
// occur (section 3.1).
func (g *DebitCredit) Next(_ int, s *rng.Stream) Tx {
	c := &g.cfg
	branch := s.Int63n(c.NumBranches)
	teller := s.Int63n(c.TellersPerBranch)

	// ACCOUNT: with probability K it belongs to the selected branch; the
	// within-branch account is drawn from the configured access
	// distribution (uniform by default).
	var account int64
	if s.Bool(c.HomeAccountProb) || c.NumBranches == 1 {
		account = branch*g.accPerBr + g.accDist.Draw(g.accPerBr, s)
	} else {
		other := s.Int63n(c.NumBranches - 1)
		if other >= branch {
			other++
		}
		account = other*g.accPerBr + g.accDist.Draw(g.accPerBr, s)
	}

	// HISTORY: append at end of file.
	hist := g.historyTail
	g.historyTail++

	// BRANCH before TELLER: with clustering the TELLER access then always
	// hits the page its BRANCH access just fetched (footnote 6's hit-ratio
	// pattern: ~95% BRANCH, 100% TELLER).
	branchObj, tellerPart, tellerObj := branch, DCTeller, branch*c.TellersPerBranch+teller
	if c.ClusterBranchTeller {
		perPage := 1 + c.TellersPerBranch
		branchObj, tellerPart, tellerObj = branch*perPage, DCBranch, branch*perPage+1+teller
	}
	return Tx{Type: 0, Accesses: []Access{
		{Partition: DCAccount, Object: account, Write: true},
		{Partition: g.historyPart, Object: hist, Write: true},
		{Partition: DCBranch, Object: branchObj, Write: true},
		{Partition: tellerPart, Object: tellerObj, Write: true},
	}}
}
