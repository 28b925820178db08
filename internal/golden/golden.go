// Package golden compares test output byte-for-byte against committed
// testdata files. Run a golden test with -update to rewrite its file
// instead (`make golden` does this for every golden in the module).
//
// The pinned outputs are simulated numbers rendered with %f-style
// formats. Go may fuse a multiply and an add into one FMA instruction
// on some architectures, which can move a last digit, so the goldens
// are pinned for amd64 only (the architecture CI runs) and skip
// elsewhere.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing against them")

// Arch is the architecture the golden files are pinned for.
const Arch = "amd64"

// SkipUnlessPinnedArch skips t on architectures other than Arch.
func SkipUnlessPinnedArch(t testing.TB) {
	t.Helper()
	if runtime.GOARCH != Arch {
		t.Skipf("golden output is pinned for GOARCH=%s; %s may fuse multiply-adds and move a last digit",
			Arch, runtime.GOARCH)
	}
}

// Check compares got with the file at path (relative to the test's
// package directory), or rewrites the file when -update is set. A
// mismatch reports the first differing line.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q\n(rerun with -update only if the change is intended, and explain it)",
				path, i+1, g, w)
		}
	}
	t.Fatalf("%s differs", path)
}
