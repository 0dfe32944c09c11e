package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutationPatchesApply checks that every mutation under
// testdata/mutations still applies to the tree (`git apply --check`), so
// a change that moves a patch's context fails here in seconds instead of
// as a "(does not apply)" row of a full `make mutate` run. It skips
// without git or outside a git checkout (scripts/mutate.sh runs the
// suite in an archived copy that already carries one patch).
func TestMutationPatchesApply(t *testing.T) {
	gitBin, err := exec.LookPath("git")
	if err != nil {
		t.Skip("git not installed")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		t.Skip("not a git checkout")
	}
	patches, err := filepath.Glob(filepath.Join(root, "internal/analysis/testdata/mutations/*.patch"))
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) == 0 {
		t.Fatal("no mutation patches found")
	}
	for _, p := range patches {
		cmd := exec.Command(gitBin, "apply", "--check", p)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("%s does not apply: %v\n%s", filepath.Base(p), err, strings.TrimSpace(string(out)))
		}
	}
}
