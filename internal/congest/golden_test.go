package congest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden checks pin the engine's output to digests captured from the
// retired goroutine-per-node execution model (DESIGN.md §2): each case
// of an equivalence matrix formats one line, and the lines must match
// testdata/<file> exactly, in order.

// goldenLine formats one case: the run error, every Metrics field, and
// SHA-256 digests of the per-node verdicts and of each further per-node
// output. A failed run pins only its error.
func goldenLine(key string, res *Result, err error, outputs ...any) string {
	if err != nil {
		return fmt.Sprintf("%s err=%q", key, err.Error())
	}
	line := fmt.Sprintf("%s err=\"\" metrics=%+v verdicts=%s", key, res.Metrics, sha(res.Verdicts))
	for _, o := range outputs {
		line += " out=" + sha(o)
	}
	return line
}

// sha digests the default formatting of v (slices of values, not
// pointers, so the digest depends only on contents).
func sha(v any) string {
	h := sha256.Sum256([]byte(fmt.Sprint(v)))
	return hex.EncodeToString(h[:])
}

// checkGolden compares the case lines against testdata/<file>.
func checkGolden(t *testing.T, file string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s: %d cases, golden file has %d lines", path, len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Fatalf("%s:%d mismatch:\n got: %s\nwant: %s", path, i+1, lines[i], want[i])
		}
	}
}
