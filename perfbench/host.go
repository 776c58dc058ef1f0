package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// hostStamp identifies what was measured and where.
type hostStamp struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// StateTmpfs reports whether the served workloads' state directories
	// sit on tmpfs; on a disk, fsync latency shows in durable requests.
	StateTmpfs bool `json:"state_tmpfs"`
}

// key is the history key: commit and core count.
func (h hostStamp) key() string { return fmt.Sprintf("%s/%dc", h.Commit, h.NProc) }

func stampHost(ctx context.Context, e *env) hostStamp {
	return hostStamp{
		Commit:     commitOf(ctx, e.root),
		NProc:      e.nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StateTmpfs: isTmpfs(e.runDir),
	}
}

// commitOf names the measured source: the git commit when the checkout is
// a repository, otherwise a digest of the Go sources and module file
// ("tree-" prefix), which identifies the same code across checkouts.
func commitOf(ctx context.Context, root string) string {
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "--short=12", "HEAD")
	cmd.Stdout = &out
	if cmd.Run() == nil {
		return strings.TrimSpace(out.String())
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

const tmpfsMagic = 0x01021994

func isTmpfs(dir string) bool {
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}

// historyEntry is one line of the benchmark's history file.
type historyEntry struct {
	Key      string            `json:"key"`
	Time     string            `json:"time"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     hostStamp         `json:"host"`
	Correct  bool              `json:"correct"`
	Outcomes Outcomes          `json:"outcomes"`
	Metrics  map[string]metric `json:"metrics"`
}

// appendHistory adds e as one JSON line at the end of path, creating the
// file if needed. Earlier lines are never rewritten.
func appendHistory(path string, e historyEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending history: %w", err)
	}
	return f.Close()
}
