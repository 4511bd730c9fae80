package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

//go:embed testdata/expected.json
var expectedJSON []byte

// expectedFile is testdata/expected.json: for each seed, workload and op
// label, the SHA-256 of the op's output.
type expectedFile struct {
	Note  string                                  `json:"note"`
	Seeds map[string]map[string]map[string]string `json:"seeds"`
}

// checker decides whether an op's output is correct. Every output must
// match the first run of the same input in this process; where the seed has
// committed fingerprints it must match those too, and registry output run
// with seed 1 must equal the experiments' golden files byte for byte.
type checker struct {
	want      map[string]string // label -> SHA-256; nil when the seed has none
	goldenDir string
	seen      map[string]string // label -> SHA-256 of its first run
}

func newChecker(workload string, seed int64, root string) (*checker, error) {
	var ef expectedFile
	if err := json.Unmarshal(expectedJSON, &ef); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return &checker{
		want:      ef.Seeds[strconv.FormatInt(seed, 10)][workload],
		goldenDir: filepath.Join(root, "internal", "experiments", "testdata", "golden"),
		seen:      map[string]string{},
	}, nil
}

func fingerprint(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

func (c *checker) check(r result) error {
	out := r.text()
	h := fingerprint(out)
	if first, ok := c.seen[r.label]; ok && first != h {
		return fmt.Errorf("%s: output differs from an earlier run of the same input", r.label)
	}
	c.seen[r.label] = h
	if want, ok := c.want[r.label]; ok && want != h {
		return fmt.Errorf("%s: output does not match its committed fingerprint", r.label)
	}
	if r.golden != "" {
		golden, err := os.ReadFile(filepath.Join(c.goldenDir, r.golden+".txt"))
		if err != nil {
			return err
		}
		if string(golden) != out {
			return fmt.Errorf("%s: output differs from its golden file", r.label)
		}
	}
	return nil
}
