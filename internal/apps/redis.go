// Package apps implements the cloud applications of the paper's use-case
// section (§7.1) against both substrates: a Redis-like key-value store
// whose database lives entirely in guest/process pages and is serialized
// by a forked child (snapshot-by-fork), and an NGINX-like HTTP server that
// scales throughput with forked workers. The same application code runs on
// a Unikraft kernel and on a Linux process, which is exactly how the paper
// builds its baselines ("we build the same application source code to
// create a Linux binary or a Unikraft VM").
package apps

import (
	"fmt"

	"nephele/internal/gmem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// DumpSink receives a database snapshot (a 9pfs file for the Unikraft
// variant, the VM's 9pfs share for the Linux baseline).
type DumpSink interface {
	Write(p []byte) (int, error)
	Close() error
}

// RedisHost abstracts the substrate a Redis instance runs on: guest
// memory, fork-for-snapshot, and the dump file channel.
type RedisHost interface {
	gmem.MemIO
	// ForkForSave forks the host; the returned child host sees the
	// database snapshot. The paper's Unikraft variant skips network
	// device cloning here (§7.1).
	ForkForSave(ctx obs.OpCtx) (RedisHost, error)
	// OpenDump opens (creating) the dump file on the host's filesystem.
	OpenDump(name string) (DumpSink, error)
	// Faults reports COW faults taken by this host.
	Faults() int
}

// Redis is the key-value store.
type Redis struct {
	host RedisHost
	db   *gmem.HashMap
	// dirty counts updates since the last save (Redis's save-after-N
	// trigger).
	dirty int
}

// NewRedis starts a store with the given bucket count on host.
func NewRedis(host RedisHost, buckets int) (*Redis, error) {
	db, err := gmem.NewHashMap(host, buckets)
	if err != nil {
		return nil, err
	}
	return &Redis{host: host, db: db}, nil
}

// Set stores key -> value.
func (r *Redis) Set(ctx obs.OpCtx, key string, value []byte) error {
	if err := r.db.Put(ctx, key, value); err != nil {
		return err
	}
	r.dirty++
	return nil
}

// Get fetches a key.
func (r *Redis) Get(key string) ([]byte, error) {
	return r.db.Get(key)
}

// Del removes a key.
func (r *Redis) Del(ctx obs.OpCtx, key string) error {
	if err := r.db.Delete(ctx, key); err != nil {
		return err
	}
	r.dirty++
	return nil
}

// Len reports the key count.
func (r *Redis) Len() int { return r.db.Len() }

// Dirty reports updates since the last completed save.
func (r *Redis) Dirty() int { return r.dirty }

// MassInsert populates n keys with the standard synthetic pattern (the
// redis-benchmark mass-insertion workload of Fig. 8).
func (r *Redis) MassInsert(ctx obs.OpCtx, n int, valueSize int) error {
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < n; i++ {
		if err := r.Set(ctx, fmt.Sprintf("key:%012d", i), val); err != nil {
			return err
		}
	}
	return nil
}

// SaveResult reports one background save.
type SaveResult struct {
	// ForkTime is the fork()/clone() call duration.
	ForkTime vclock.Duration
	// SerializeTime is the child's time to write the dump.
	SerializeTime vclock.Duration
	Keys          int
	Bytes         int
}

// rdbWriteCostPerKey approximates serializing one entry (format, CRC,
// write syscall amortization) on the paper's ramdisk-backed 9pfs.
const rdbWriteCostPerKey = 1 * vclock.Duration(1000) // 1µs

// BGSave implements the snapshot save: fork the host, then the child
// serializes its COW view of the database to dumpName while the parent is
// free to keep serving. This is the §7.1 experiment: the save's
// correctness depends on real snapshot semantics, which the page-backed
// map provides.
func (r *Redis) BGSave(ctx obs.OpCtx, dumpName string) (*SaveResult, error) {
	ctx = ctx.EnsureMeter(nil)
	meter := ctx.Meter()
	forkStart := meter.Elapsed()
	child, err := r.host.ForkForSave(ctx)
	if err != nil {
		return nil, err
	}
	res := &SaveResult{ForkTime: meter.Lap(forkStart)}

	serStart := meter.Elapsed()
	sink, err := child.OpenDump(dumpName)
	if err != nil {
		return nil, err
	}
	childDB := r.db.CloneFor(child)
	header := fmt.Sprintf("REDIS-SIM-RDB keys=%d\n", childDB.Len())
	if _, err := sink.Write([]byte(header)); err != nil {
		return nil, err
	}
	bytes := len(header)
	walkErr := childDB.Range(func(key string, val []byte) bool {
		rec := fmt.Sprintf("%d:%s:%d:", len(key), key, len(val))
		if _, err := sink.Write([]byte(rec)); err != nil {
			return false
		}
		if _, err := sink.Write(val); err != nil {
			return false
		}
		if _, err := sink.Write([]byte("\n")); err != nil {
			return false
		}
		bytes += len(rec) + len(val) + 1
		meter.Add(rdbWriteCostPerKey)
		res.Keys++
		return true
	})
	if walkErr != nil {
		return nil, walkErr
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	res.SerializeTime = meter.Lap(serStart)
	res.Bytes = bytes
	r.dirty = 0
	return res, nil
}
