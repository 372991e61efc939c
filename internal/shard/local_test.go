package shard_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"twobitreg/internal/regclient"
	"twobitreg/internal/shard"
	"twobitreg/internal/storage"
)

// keyOn returns a key hash-placed on shard s of nshards, named after prefix.
func keyOn(prefix string, s, nshards int) string {
	for j := 0; ; j++ {
		if k := fmt.Sprintf("%s-%d", prefix, j); shard.ShardOfKey(k, nshards) == s {
			return k
		}
	}
}

// pollSlots reads the given processes' slots until stop closes, the way an
// operator's stats reader would while they are killed and revived: every
// accessor must see either the live member or nil (run under -race).
func pollSlots(lc *shard.LocalCluster, slots [][2]int, stop <-chan struct{}, wg *sync.WaitGroup) {
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sl := range slots {
					if m := lc.Member(sl[0], sl[1]); m != nil {
						_ = m.Mesh().Stats()
						if nd := m.Node(); nd != nil { // nil once the kill is under way
							_ = nd.ID()
						}
						_ = m.Server().ActiveSessions()
					}
				}
				time.Sleep(20 * time.Microsecond) // poll, but leave the cores to the cluster
			}
		}()
	}
}

// TestLocalClusterKillRacesReaders kills process 0 of every shard while
// other goroutines read those slots and a routing client keeps issuing gets
// on a key of every shard: the client must fail over to each shard's
// surviving majority — an operation may never fail, let alone panic.
func TestLocalClusterKillRacesReaders(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			lc, err := shard.StartLocal(shards, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			cl, err := regclient.New(lc.Config, 0) // prefers the processes about to die
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			var keys []string
			var victims [][2]int
			for s := 0; s < shards; s++ {
				k := keyOn("k", s, shards)
				if err := cl.Put(k, []byte(k)); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
				victims = append(victims, [2]int{s, 0})
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			pollSlots(lc, victims, stop, &wg)
			gets := make(chan error, 1)
			go func() {
				for i := 0; i < 200; i++ {
					k := keys[i%len(keys)]
					if got, err := cl.Get(k); err != nil || string(got) != k {
						gets <- fmt.Errorf("get %d of %s: %q, %v", i, k, got, err)
						return
					}
				}
				gets <- nil
			}()
			for _, v := range victims {
				lc.KillProc(v[0], v[1])
			}
			if err := <-gets; err != nil {
				t.Error(err)
			}
			close(stop)
			wg.Wait()
			for _, v := range victims {
				if lc.Member(v[0], v[1]) != nil {
					t.Errorf("killed process %v is still in its slot", v)
				}
			}
		})
	}
}

// TestLocalClusterReviveRacesReaders restarts process 0 of the last shard
// while other goroutines read its slot and one sequential client per shard
// keeps writing and reading: ReviveProc is a new member on the same
// addresses and log and nothing more, so everything else — the peers
// learning of the new incarnation, both ends of each link resetting — has to
// happen by itself, under load. Then a second process of that shard is
// killed for good, so every quorum there needs the revived one: a link left
// wedged by the restart would hang the shard here. No operation on any
// shard may fail, none may read anything but the latest acknowledged write,
// a write the victim acknowledged just before its crash must survive in its
// log and read back through it, and each surviving peer must have counted
// the restart once — the other shard's members not at all. In the mixed
// input only the victim has a log: its volatile peers must reset their
// links to it all the same.
func TestLocalClusterReviveRacesReaders(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		mixed  bool
	}{{"shards=1", 1, false}, {"shards=2", 2, false}, {"mixed-durability", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			shards := tc.shards
			vs := shards - 1 // the victim's shard
			logs := make([][]*storage.FileWAL, shards)
			for s := range logs {
				logs[s] = []*storage.FileWAL{storage.NewMemLog(), storage.NewMemLog(), storage.NewMemLog()}
			}
			lc, err := shard.StartLocal(shards, 3, func(s, i int) storage.StableStorage {
				if tc.mixed && (s != vs || i != 0) {
					return nil // volatile: a nil interface, not a nil *FileWAL
				}
				return logs[s][i]
			})
			if err != nil {
				t.Fatal(err)
			}
			defer lc.Close()
			victimAddr := lc.Config.Shards[vs].Procs[0].Client

			stop := make(chan struct{})
			var wg sync.WaitGroup
			pollSlots(lc, [][2]int{{vs, 0}}, stop, &wg)
			// One sequential client per shard: each read must return the
			// write before it.
			load := make(chan error, shards)
			for s := 0; s < shards; s++ {
				cl, err := regclient.New(lc.Config, 0) // prefers the process that restarts
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				k := keyOn("k", s, shards)
				go func() {
					for i := 0; ; i++ {
						select {
						case <-stop:
							load <- nil
							return
						default:
						}
						want := fmt.Sprintf("v%d", i)
						if err := cl.Put(k, []byte(want)); err != nil {
							load <- fmt.Errorf("put %s=%s: %v", k, want, err)
							return
						}
						if got, err := cl.Get(k); err != nil || string(got) != want {
							load <- fmt.Errorf("get %s after put %s: %q, %v", k, want, got, err)
							return
						}
					}
				}()
			}

			time.Sleep(20 * time.Millisecond)
			// The last write the victim acknowledges before it crashes.
			acked := keyOn("acked", vs, shards)
			sess, err := regclient.DialNode(victimAddr)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Put(acked, []byte("before-crash")); err != nil {
				t.Fatal(err)
			}
			sess.Close()
			lc.KillProc(vs, 0)
			if err := logs[vs][0].Reopen(); err != nil { // the crash: the unsynced frame vanishes
				t.Fatal(err)
			}
			held := false
			logs[vs][0].Replay(func(r storage.Record) error {
				// The keyed store stamps the key into the stored value.
				held = held || bytes.Contains(r.Val, []byte("before-crash"))
				return nil
			})
			if !held {
				t.Error("the write the victim acknowledged is not in its log after the crash")
			}
			time.Sleep(20 * time.Millisecond)
			if err := lc.ReviveProc(vs, 0); err != nil {
				t.Fatal(err)
			}
			if err := lc.ReviveProc(vs, 0); err == nil {
				t.Error("ReviveProc restarted a process that is running")
			}
			time.Sleep(20 * time.Millisecond)
			lc.KillProc(vs, 1) // from here on every quorum of the shard is the revived process and process 2
			time.Sleep(50 * time.Millisecond)
			close(stop)
			for s := 0; s < shards; s++ {
				select {
				case err := <-load:
					if err != nil {
						t.Error(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a client is stuck: the restart left a link wedged")
				}
			}
			wg.Wait()
			// And through the revived process itself, not just past it.
			sess, err = regclient.DialNode(victimAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			own := make(chan error, 1)
			go func() {
				if got, err := sess.Get(acked); err != nil || string(got) != "before-crash" {
					own <- fmt.Errorf("read of the write acknowledged before the crash: %q, %v", got, err)
					return
				}
				last := keyOn("last", vs, shards)
				if err := sess.Put(last, []byte("last")); err != nil {
					own <- fmt.Errorf("write: %v", err)
					return
				}
				got, err := sess.Get(last)
				if err != nil || string(got) != "last" {
					err = fmt.Errorf("read: %q, %v", got, err)
				}
				own <- err
			}()
			select {
			case err := <-own:
				if err != nil {
					t.Errorf("through the revived process: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the revived process cannot finish an operation of its own")
			}
			for s := 0; s < shards; s++ {
				for i := 0; i < 3; i++ {
					m := lc.Member(s, i)
					if m == nil || (s == vs && i == 0) {
						continue // killed, or the revived process itself
					}
					want := int64(0)
					if s == vs {
						want = 1
					}
					if got := m.Mesh().Stats().PeerRestarts; got != want {
						t.Errorf("shard %d process %d counted %d peer restarts, want %d", s, i, got, want)
					}
				}
			}
		})
	}
}
