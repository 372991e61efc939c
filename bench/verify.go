package main

import (
	"fmt"

	"twobitreg/internal/check"
	"twobitreg/internal/proto"
	"twobitreg/internal/storage"
)

// checkLinearizable judges every key's full recorded history — warm-up and
// tail included, since a read in the window may return a value written
// before it — with the repository's atomicity checker. A failed operation
// is recorded as invoked and never returned: a failed write may or may not
// have taken effect. It returns the number of keys judged.
func checkLinearizable(recs [][]opRecord) (int, error) {
	var perKey [numKeys][]check.Op
	id := proto.OpID(0)
	for w, log := range recs {
		for _, r := range log {
			id++
			op := check.Op{
				ID: id, Proc: w, Kind: proto.OpWrite, Value: r.val,
				Inv: float64(r.inv), Res: float64(r.res), Completed: r.ok,
			}
			if r.read {
				op.Kind = proto.OpRead
				if len(r.val) == 0 {
					op.Value = nil // the client protocol renders the initial value as empty
				}
			}
			perKey[r.key] = append(perKey[r.key], op)
		}
	}
	keys := 0
	for k, ops := range perKey {
		if len(ops) == 0 {
			continue
		}
		h := check.History{Ops: ops}
		if err := check.For(h).Check(h); err != nil {
			return keys, fmt.Errorf("key %s is not linearizable over %d operations: %w", keyNames[k], len(ops), err)
		}
		keys++
	}
	return keys, nil
}

// ackedWritesMissing replays each closed WAL file and counts the
// acknowledged writes whose value is in fewer than quorum of them. Only
// file contents count, so nothing a process merely held in memory does.
// This is stronger than the last value per key: the protocol acknowledges
// a write only after a quorum has logged and synced it.
func ackedWritesMissing(walPaths []string, recs [][]opRecord, quorum int) (int, error) {
	holders := make(map[string]int) // value -> number of logs holding it
	for _, path := range walPaths {
		wal, err := storage.OpenFileWAL(path)
		if err != nil {
			return 0, err
		}
		inLog := make(map[string]bool)
		err = wal.Replay(func(r storage.Record) error {
			inLog[string(r.Val)] = true
			return nil
		})
		wal.Close()
		if err != nil {
			return 0, fmt.Errorf("replay %s: %w", path, err)
		}
		for v := range inLog {
			holders[v]++
		}
	}
	missing := 0
	for _, log := range recs {
		for _, r := range log {
			if !r.read && r.ok && holders[string(r.val)] < quorum {
				missing++
			}
		}
	}
	return missing, nil
}
