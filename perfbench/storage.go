package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qproc/internal/metrics"
	"qproc/internal/runstore"
)

// replayStorage times the storage layers on the workload's own
// payloads, against a scratch directory laid out as qserve lays out its
// store: runstore.Store.Put and Get, runstore.Journal.Append with fsync
// on (qserve's default), and metrics.Store.Append. It reports only these
// times: counts such as store hits would merely echo the replay's own
// Put-then-Get, so those come from a server's /v1/stats or read 0.
func replayStorage(cfg config, rep *report, workload string, payloads [][]byte) error {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("replay-%s-%d", workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := runstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	journal, err := runstore.OpenJournal(filepath.Join(dir, "jobs.ndjson"), 256, runstore.WithFsync(true))
	if err != nil {
		return err
	}
	defer journal.Close()
	ms, err := metrics.Open(filepath.Join(dir, "metrics"), metrics.Retention{MaxBytes: 64 << 20})
	if err != nil {
		return err
	}
	defer ms.Close()

	var put, get, app, mapp []time.Duration
	for i, payload := range payloads {
		key, err := runstore.HashJSON(json.RawMessage(payload))
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = st.Put(key, workload, workload, payload)
		put = append(put, time.Since(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		back, _, err := st.Get(key)
		get = append(get, time.Since(t0))
		if err != nil {
			return err
		}
		if !bytes.Equal(back, payload) {
			rep.fail("run store returned a different payload for %s", key)
		}
		now := time.Now().UTC()
		t0 = time.Now()
		err = journal.Append(runstore.JobRecord{ID: key, Kind: workload, Status: "done", Submitted: now, Started: now, Finished: now, Attempts: 1})
		app = append(app, time.Since(t0))
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = ms.Append("job:"+key+"/payload_bytes", metrics.Point{T: now, Step: int64(i), V: float64(len(payload))})
		mapp = append(mapp, time.Since(t0))
		if err != nil {
			return err
		}
	}
	rep.layerMs("runstore.put_ms", median(put))
	rep.layerMs("runstore.get_ms", median(get))
	rep.layerMs("runstore.journal_append_ms", median(app))
	rep.layerMs("metrics.append_ms", median(mapp))
	return nil
}
