package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// stampEnv records what a reader needs to compare two reports.
func stampEnv(res *result, c *runCtx, workload string) {
	res.addStamp("workload", workload)
	res.addStamp("seed", c.seed)
	res.addStamp("seconds", c.seconds)
	res.addStamp("trace", c.trace)
	res.addStamp("nproc", runtime.NumCPU())
	res.addStamp("gomaxprocs", runtime.GOMAXPROCS(0))
	res.addStamp("go", runtime.Version())
	res.addStamp("commit", commitOf(c.root))
	res.addStamp("source_sha256", sourceDigest(c.root))
}

// commitOf is the checkout's git commit, when it is a git checkout. It
// looks no further up than root.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none (not a git checkout; see source_sha256)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none (not a git checkout; see source_sha256)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod outside the
// benchmark's own directory, identifying the code under test even where
// the checkout carries no git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not stop the stamp
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "relaccbench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsName names the filesystem holding dir, for the durability stamp.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// goldenKey names a stored digest: serve_mix's schedule length depends
// on the run's seconds, the batch inputs do not.
func goldenKey(workload string, seed int64, seconds int) string {
	if seconds > 0 {
		return fmt.Sprintf("%s/seed=%d/seconds=%d", workload, seed, seconds)
	}
	return fmt.Sprintf("%s/seed=%d", workload, seed)
}

// checkGolden compares digest with the one stored for this workload and
// seed in golden.json, failing the run on a mismatch. Seeds without a
// stored digest rely on the run's own agreement checks.
func checkGolden(c *runCtx, res *result, workload string, seconds int, digest string) {
	key := goldenKey(workload, c.seed, seconds)
	res.notef("output digest %s = %s", key, digest)
	data, err := os.ReadFile(filepath.Join(c.root, "relaccbench", "golden.json"))
	if err != nil {
		res.notef("no golden.json (%v); agreement checks only", err)
		return
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		res.correct = false
		res.notef("MISMATCH: golden.json unreadable: %v", err)
		return
	}
	want, ok := golden[key]
	switch {
	case !ok:
		res.notef("no golden digest for %s; agreement checks only", key)
	case want != digest:
		res.correct = false
		res.notef("MISMATCH: digest %s, golden %s", digest, want)
	default:
		res.notef("golden digest matches")
	}
}
