package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xvolt/internal/core"
)

// testdata/seed1.txt is `xvolt-govern -seed 1`; the command must
// reproduce it byte for byte at any training worker count.
func TestRunMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism-%d", workers), func(t *testing.T) {
			core.FlushCampaignCache()
			var buf bytes.Buffer
			if err := run(&buf, 20, 0, 1, 6, 1, workers, "", ""); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("output differs from testdata/seed1.txt:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// Training and loading a saved bank lead into the same online phase: a
// run from -models reports exactly the epochs the training run reported.
func TestSavedBankReplaysOnlinePhase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bank.json")
	var trained, loaded bytes.Buffer
	if err := run(&trained, 10, 4, 0, 3, 2, 2, path, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(&loaded, 10, 4, 0, 3, 2, 2, "", path); err != nil {
		t.Fatal(err)
	}
	online := func(out string) string {
		if i := strings.Index(out, "\nsimulated "); i >= 0 {
			return out[i:]
		}
		t.Fatalf("no online summary in:\n%s", out)
		return ""
	}
	if a, b := online(trained.String()), online(loaded.String()); a != b {
		t.Errorf("online phase differs after loading the bank:\ntrained:%s\nloaded:%s", a, b)
	}
}
