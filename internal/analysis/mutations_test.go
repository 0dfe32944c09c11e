package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutationPatchesApply checks that every mutation under
// testdata/mutations still applies to the tree exactly (`git apply
// --check -v`, with no hunk landing at an offset), so a change that moves
// a patch's context fails here in seconds instead of as a "(does not
// apply)" row of a full `make mutate` run, or as a patch that quietly
// seeds its bug a few lines away from where it was measured. It skips
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
		cmd := exec.Command(gitBin, "apply", "--check", "-v", p)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("%s does not apply: %v\n%s", filepath.Base(p), err, strings.TrimSpace(string(out)))
			continue
		}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.Contains(line, "offset") || strings.Contains(line, "fuzz") {
				t.Errorf("%s applies only inexactly; re-cut it: %s", filepath.Base(p), line)
			}
		}
	}
}
