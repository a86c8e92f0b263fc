// Package ckpt provides application-level checkpointing for replicated
// runs. The paper combines replication with (infrequent) coordinated
// checkpointing: replication makes the loss of *all* replicas of a rank
// rare, and only that event forces a rollback (§1, §4.1). Its §4.1 also
// plans file I/O handling for replicated execution following Böhm &
// Engelmann's redundant-execution I/O work [1]: a write performed by every
// replica must reach stable storage exactly once.
//
// This package implements that storage side: per-rank, per-step checkpoint
// files published atomically and exactly once per (rank, wave) — the first
// replica of the rank to reach the wave wins, so no single lagging replica
// holds a wave back — with an integrity hash verified on load, a
// coordinated-commit marker per wave so a half-written wave is never chosen
// for restart, and a Latest scan plus GC of superseded waves.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store is a directory of checkpoint files.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(rank, step int) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-r%04d-s%08d.bin", rank, step))
}

// Publish persists one rank's state at a step unless a file for it
// already exists, reporting whether this call created it. Every replica
// of a rank calls it on reaching a wave: the first one publishes, the
// rest find the file in place, so exactly one file per (rank, wave)
// remains, written by whichever replica got there first — replicas hold
// the same state at the same step. The file appears atomically with its
// full content (temp file + a no-replace link), so concurrent publishers
// cannot tear or overwrite each other.
func (s *Store) Publish(rank, step int, data []byte) (bool, error) {
	path := s.path(rank, step)
	if _, err := os.Stat(path); err == nil {
		return false, nil
	}
	tmpName, err := s.writeTemp(data)
	if err != nil {
		return false, err
	}
	defer os.Remove(tmpName)
	if err := os.Link(tmpName, path); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return false, nil // another replica published first
		}
		return false, fmt.Errorf("ckpt: %w", err)
	}
	mBytesCkpt.Add(uint64(len(data)))
	return true, nil
}

// writeAtomic persists data with an fnv64 integrity footer via a temp file
// + rename, so a crash mid-write never corrupts a previous file under the
// same name. Message-log writes use it; checkpoints go through Publish.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmpName, err := s.writeTemp(data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// writeTemp writes data plus its fnv64 integrity footer to a fresh temp
// file in the store and returns the file's name.
func (s *Store) writeTemp(data []byte) (string, error) {
	h := fnv.New64a()
	h.Write(data)
	var footer [8]byte
	binary.LittleEndian.PutUint64(footer[:], h.Sum64())

	tmp, err := os.CreateTemp(s.dir, "ckpt-tmp-*")
	if err != nil {
		return "", fmt.Errorf("ckpt: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("ckpt: %w", err)
	}
	if _, err := tmp.Write(footer[:]); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("ckpt: %w", err)
	}
	return tmpName, nil
}

// readVerified reads a footer-protected file, failing on truncation or an
// integrity-hash mismatch.
func readVerified(path, what string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if len(raw) < 8 {
		return nil, fmt.Errorf("ckpt: truncated %s", what)
	}
	data, footer := raw[:len(raw)-8], raw[len(raw)-8:]
	h := fnv.New64a()
	h.Write(data)
	if h.Sum64() != binary.LittleEndian.Uint64(footer) {
		return nil, fmt.Errorf("ckpt: corrupt %s", what)
	}
	return data, nil
}

// Load reads and verifies one rank's checkpoint at a step.
func (s *Store) Load(rank, step int) ([]byte, error) {
	return readVerified(s.path(rank, step), fmt.Sprintf("checkpoint rank %d step %d", rank, step))
}

// Verify checks an existing checkpoint against data a non-writer replica
// computed — the cross-replica output comparison of redundant-execution
// I/O (a mismatch indicates divergence or corruption). The comparison is
// exact: Load has already integrity-checked the stored bytes, so comparing
// the bytes themselves costs the same as re-hashing and cannot be fooled
// by a hash collision.
func (s *Store) Verify(rank, step int, data []byte) error {
	stored, err := s.Load(rank, step)
	if err != nil {
		return err
	}
	if !bytes.Equal(stored, data) {
		return fmt.Errorf("ckpt: replica state diverges from stored checkpoint (rank %d step %d)", rank, step)
	}
	return nil
}

// Steps lists the checkpointed steps for a rank, ascending.
func (s *Store) Steps(rank int) ([]int, error) {
	return s.stepsWithPrefix(fmt.Sprintf("ckpt-r%04d-s", rank))
}

// stepsWithPrefix lists the steps encoded in "<prefix><step>.bin" file
// names, ascending.
func (s *Store) stepsWithPrefix(prefix string) ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var steps []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".bin") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".bin")
		v, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		steps = append(steps, v)
	}
	sort.Ints(steps)
	return steps, nil
}

// LatestCommon returns the most recent step for which *every* rank in
// 0..ranks-1 has a checkpoint AND the coordinated-commit marker exists —
// the consistent restart line of a coordinated checkpoint — or -1 if none
// exists. Requiring the marker means a wave interrupted mid-write (a rank
// lost before its save, or a writer crashed between ranks) is never chosen
// even if every per-rank file happens to be present and intact.
func (s *Store) LatestCommon(ranks int) (int, error) {
	common := map[int]int{}
	for rank := 0; rank < ranks; rank++ {
		steps, err := s.Steps(rank)
		if err != nil {
			return -1, err
		}
		for _, st := range steps {
			common[st]++
		}
	}
	best := -1
	for st, n := range common {
		if n == ranks && st > best && s.Committed(st) {
			best = st
		}
	}
	return best, nil
}

func (s *Store) commitPath(step int) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-commit-s%08d.ok", step))
}

// Commit marks the wave at step as coordinated: every rank's writer has
// completed its save. Idempotent. The marker is empty — its existence is
// the whole signal, so a plain create is already atomic (it cannot be
// observed torn) and no temp-file dance is needed. Until the marker
// exists, LatestCommon will not select the wave.
func (s *Store) Commit(step int) error {
	if err := os.WriteFile(s.commitPath(step), nil, 0o644); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	mCommits.Inc()
	return nil
}

// Committed reports whether the wave at step carries the coordinated-commit
// marker.
func (s *Store) Committed(step int) bool {
	_, err := os.Stat(s.commitPath(step))
	return err == nil
}

// Prune garbage-collects superseded waves: every checkpoint file, per-rank
// message-log (replay-state) file, and commit marker with step < keep is
// removed. The launcher calls it after a new wave commits, so the store
// holds at most the waves still usable for rollback or localized replay —
// without it, repeated waves of a logging-enabled run would leak one mlog
// file per wave forever. In-flight ckpt-tmp-* files are left alone — a
// concurrent writer may own them.
func (s *Store) Prune(keep int) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	for _, e := range entries {
		st, ok := stepOf(e.Name())
		if !ok || st >= keep {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("ckpt: %w", err)
		}
		if strings.HasPrefix(e.Name(), "mlog-") {
			mPrunedLogs.Inc()
		} else {
			mPruned.Inc()
		}
	}
	return nil
}

// PruneAbove removes every checkpoint, message-log and commit-marker file
// of a wave after keep. A rollback to wave keep calls it: those files are
// leftovers of the torn-down epoch, and since Publish never replaces a
// file, the new epoch must not find them — a committed wave's files all
// come from the epoch that committed it.
func (s *Store) PruneAbove(keep int) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	for _, e := range entries {
		if st, ok := stepOf(e.Name()); ok && st > keep {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("ckpt: %w", err)
			}
		}
	}
	return nil
}

// stepOf parses the wave step out of a checkpoint or commit-marker file
// name, rejecting anything else (tmp files, foreign files).
func stepOf(name string) (int, bool) {
	var num string
	switch {
	case strings.HasPrefix(name, "ckpt-commit-s") && strings.HasSuffix(name, ".ok"):
		num = strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-commit-s"), ".ok")
	case strings.HasPrefix(name, "ckpt-r") && strings.HasSuffix(name, ".bin"),
		strings.HasPrefix(name, "mlog-r") && strings.HasSuffix(name, ".bin"):
		i := strings.LastIndex(name, "-s")
		if i < 0 {
			return 0, false
		}
		num = strings.TrimSuffix(name[i+2:], ".bin")
	default:
		return 0, false
	}
	v, err := strconv.Atoi(num)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}
