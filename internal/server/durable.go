package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"roughsim"
	"roughsim/internal/jobs"
	"roughsim/internal/journal"
	"roughsim/internal/resilience"
	"roughsim/internal/sscm"
	"roughsim/internal/sweepengine"
)

// This file is the durability and overload tier of roughsimd:
//
//   - every accepted sweep job is journaled (WAL) before the 202 leaves
//     the server, and unfinished jobs are re-enqueued — under their
//     original IDs, so client-held status URLs survive — when the
//     daemon reboots against the same journal;
//   - completed collocation-node columns are checkpointed through a
//     content-addressed cache as the sweep runs, so a crashed sweep
//     resumes without re-solving finished work (bitwise identically);
//   - a queue-pressure admission gate and an outcome-driven circuit
//     breaker shed exact-solve load with 429/503 + Retry-After while
//     the surrogate/cache fast path keeps serving.

// retryBackoff is the between-attempt schedule of transiently failed
// jobs (see Config.MaxAttempts).
func (s *Server) retryBackoff() resilience.Backoff {
	base := s.cfg.RetryBase
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	return resilience.Backoff{Base: base, Max: 30 * time.Second, Jitter: 0.2}
}

func (s *Server) submitOptions(id string, attempt int) jobs.SubmitOptions {
	return jobs.SubmitOptions{
		ID:          id,
		Attempt:     attempt,
		MaxAttempts: s.cfg.MaxAttempts,
		Backoff:     s.retryBackoff(),
	}
}

// submitSweep journals, then enqueues, one sweep job. The journal
// append is durable (fsynced) before the queue sees the job, so an
// acknowledged 202 always survives a crash: either the job completes
// and a terminal record follows, or a restart replays it. A submission
// the queue then refuses is closed out in the journal immediately.
func (s *Server) submitSweep(cfg roughsim.SweepConfig) (*jobs.Job, error) {
	id := jobs.NewID()
	if s.journal != nil {
		raw, err := json.Marshal(cfg)
		if err != nil {
			return nil, fmt.Errorf("server: encode config for journal: %w", err)
		}
		if err := s.journal.Append(journal.Record{
			Op: journal.OpSubmitted, JobID: id, Key: cfg.Key().String(), Config: raw,
		}); err != nil {
			return nil, fmt.Errorf("server: journal submit: %w", err)
		}
	}
	job, err := s.queue.SubmitOpts(s.runSweep(cfg), s.submitOptions(id, 0))
	if err != nil {
		if s.journal != nil {
			s.journal.Append(journal.Record{
				Op: journal.OpCanceled, JobID: id,
				Error: "submission rejected: " + err.Error(),
			})
		}
		return nil, err
	}
	return job, nil
}

// replayPending re-enqueues the unfinished jobs a journal replay
// surfaced, preserving their original job IDs and spent attempt counts,
// then resumes unfinished campaigns under their original campaign IDs.
// Called from New before the listener is up, so replayed work races
// nothing.
func (s *Server) replayPending(rep journal.Replay) {
	for _, p := range rep.Jobs {
		if p.Op == journal.OpSparamsSubmitted {
			s.replaySParams(p)
			continue
		}
		var cfg roughsim.SweepConfig
		if err := json.Unmarshal(p.Config, &cfg); err != nil {
			s.log.Warn("journal replay: undecodable config", "job", p.JobID, "err", err)
			s.journal.Append(journal.Record{
				Op: journal.OpFailed, JobID: p.JobID,
				Error: "replay: undecodable config: " + err.Error(),
				Kind:  resilience.KindInvalidInput.String(),
			})
			continue
		}
		cfg = cfg.WithDefaults()
		if _, err := s.queue.SubmitOpts(s.runSweep(cfg), s.submitOptions(p.JobID, p.Attempts)); err != nil {
			s.log.Warn("journal replay: resubmit failed", "job", p.JobID, "err", err)
			s.journal.Append(journal.Record{
				Op: journal.OpFailed, JobID: p.JobID,
				Error: "replay rejected: " + err.Error(),
			})
			continue
		}
		s.metrics.Counter("journal.jobs_replayed").Inc()
		s.log.Info("journal replay: job re-enqueued",
			"job", p.JobID, "attempts_spent", p.Attempts, "anchors_done", p.AnchorsDone)
	}
	for _, pc := range rep.Campaigns {
		var cfg roughsim.CampaignConfig
		if err := json.Unmarshal(pc.Config, &cfg); err != nil {
			s.log.Warn("journal replay: undecodable campaign config", "campaign", pc.ID, "err", err)
			s.journal.Append(journal.Record{
				Op: journal.OpCampaignFailed, JobID: pc.ID,
				Error: "replay: undecodable config: " + err.Error(),
				Kind:  resilience.KindInvalidInput.String(),
			})
			continue
		}
		c, _, err := s.camps.Start(cfg)
		if err != nil {
			s.log.Warn("journal replay: campaign restart failed", "campaign", pc.ID, "err", err)
			s.journal.Append(journal.Record{
				Op: journal.OpCampaignFailed, JobID: pc.ID,
				Error: "replay rejected: " + err.Error(),
				Kind:  resilience.Classify(err).String(),
			})
			continue
		}
		if c.ID != pc.ID {
			// The content-address schema changed underneath the journal:
			// close out the orphaned record so it cannot replay forever —
			// the campaign continues under its recomputed ID.
			s.journal.Append(journal.Record{
				Op: journal.OpCampaignCanceled, JobID: pc.ID,
				Error: "replay: campaign key schema changed; resumed as " + c.ID,
			})
		}
		s.metrics.Counter("journal.campaigns_replayed").Inc()
		s.log.Info("journal replay: campaign resumed",
			"campaign", pc.ID, "cells_done_before_crash", pc.CellsDone)
	}
}

// journalStarted records a worker pickup (advances the attempt count a
// future replay seeds the job with).
func (s *Server) journalStarted(meta jobs.Meta, ok bool) {
	if s.journal == nil || !ok || s.isUnjournaled(meta.JobID) {
		return
	}
	s.journal.Append(journal.Record{
		Op: journal.OpStarted, JobID: meta.JobID, Attempt: meta.Attempt,
	})
}

// observeTerminal is the queue's terminal-job observer: it funnels
// every real outcome into the journal (so replay drops finished jobs),
// the circuit breaker, and checkpoint cleanup. Cancellations produced
// by the drain itself are shutdown artifacts, not outcomes — they are
// deliberately NOT journaled as terminal, so a restart replays the job.
func (s *Server) observeTerminal(j *jobs.Job) {
	info := j.Snapshot()
	if info.Status == jobs.StatusCanceled && s.queue.Draining() {
		return
	}
	// An S-parameter generation job's in-flight tracking ends with the
	// job, whatever the outcome.
	s.clearSParams(j.ID)
	// Campaign cell jobs carry no per-job journal records (the campaign
	// record is their durability); breaker accounting and checkpoint
	// cleanup still apply.
	unj := s.clearUnjournaled(j.ID)
	journaled := s.journal != nil && !unj
	switch info.Status {
	case jobs.StatusSucceeded:
		s.brk.Record(true)
		if journaled {
			s.journal.Append(journal.Record{Op: journal.OpCompleted, JobID: j.ID})
		}
		s.purgeCheckpoints(j.ID)
	case jobs.StatusFailed:
		s.brk.Record(false)
		if journaled {
			_, err := j.Result()
			rec := journal.Record{Op: journal.OpFailed, JobID: j.ID}
			if err != nil {
				rec.Error = err.Error()
				rec.Kind = resilience.Classify(err).String()
			}
			s.journal.Append(rec)
		}
		s.purgeCheckpoints(j.ID)
	case jobs.StatusCanceled:
		if journaled {
			s.journal.Append(journal.Record{Op: journal.OpCanceled, JobID: j.ID})
		}
		s.purgeCheckpoints(j.ID)
	}
}

// ckptStore adapts the checkpoint cache to sweepengine.Checkpoint for
// one job's engine run. cfg.Freqs is exactly the frequency list the
// engine executes (the cache-missing subset), so checkpoint keys — and
// column lengths — can only match an identical residual sweep.
type ckptStore struct {
	s     *Server
	cfg   roughsim.SweepConfig
	jobID string
}

// checkpointStore builds the Checkpoint for one engine run and records
// its key-config so the job's terminal observer can purge consumed
// checkpoints. Returns a nil interface when checkpointing is disabled.
func (s *Server) checkpointStore(jobID string, cfg roughsim.SweepConfig) sweepengine.Checkpoint {
	if s.ckpts == nil {
		return nil
	}
	if jobID != "" {
		s.ckptMu.Lock()
		s.ckptCfgs[jobID] = cfg
		s.ckptMu.Unlock()
	}
	return &ckptStore{s: s, cfg: cfg, jobID: jobID}
}

func (c *ckptStore) Load(node int) ([]float64, bool) {
	return c.s.ckpts.Get(c.cfg.CheckpointKey(node))
}

func (c *ckptStore) Save(node int, col []float64) {
	// Saves are serialized (engine workers save concurrently otherwise)
	// and the chaos point sits BEFORE the write: "crash at the n-th
	// checkpoint save" then deterministically leaves exactly n-1 columns
	// durable — the torn state the resume path must tolerate.
	c.s.ckptWriteMu.Lock()
	defer c.s.ckptWriteMu.Unlock()
	n := c.s.ckptSeq.Add(1)
	c.s.chaos.Crash("sweep.checkpoint", n)
	c.s.ckpts.Put(c.cfg.CheckpointKey(node), col)
	if c.s.journal != nil && c.jobID != "" {
		c.s.journal.Append(journal.Record{
			Op: journal.OpAnchorDone, JobID: c.jobID,
		}.WithAnchor(node))
	}
}

// purgeCheckpoints deletes every checkpoint column a finished job may
// have persisted — its final result is in the result cache now, so the
// columns are consumed; leaving them would grow the disk tier with
// history instead of in-flight work.
func (s *Server) purgeCheckpoints(jobID string) {
	if s.ckpts == nil {
		return
	}
	s.ckptMu.Lock()
	cfg, ok := s.ckptCfgs[jobID]
	delete(s.ckptCfgs, jobID)
	s.ckptMu.Unlock()
	if !ok {
		return
	}
	nodes, err := sscm.Nodes(cfg.Acc.StochasticDim, 1)
	if err != nil {
		return
	}
	for node := sweepengine.FlatRefNode; node < len(nodes); node++ {
		s.ckpts.Delete(cfg.CheckpointKey(node))
	}
}

// admit is the overload gate in front of the queue: under high queue
// pressure only cheap work (a couple of frequencies — the GET /k
// fallback shape) is still admitted, and an open circuit breaker
// refuses all new exact-solve work. The returned retry is the
// Retry-After hint; err is non-nil when the request must be shed.
func (s *Server) admit(cost int) (retry time.Duration, err error) {
	if wait, ok := s.brk.Allow(); !ok {
		return wait, fmt.Errorf("circuit breaker open: exact-solve tier is failing; retry after cooldown")
	}
	depth, capacity := s.queue.Depth(), s.queue.Cap()
	if depth >= capacity {
		return s.drainEstimate(depth), fmt.Errorf("queue full (%d jobs)", depth)
	}
	const cheapSweepCost = 2 // single-point /k fallbacks and probes stay admitted
	if 4*depth >= 3*capacity && cost > cheapSweepCost {
		s.metrics.Counter("server.admission_shed").Inc()
		return s.drainEstimate(depth), fmt.Errorf(
			"queue under pressure (%d/%d jobs): only short sweeps admitted; retry later", depth, capacity)
	}
	return 0, nil
}

// drainEstimate guesses how long the backlog needs to clear enough to
// retry — deliberately coarse (a second per queued job per worker,
// floor 1s): Retry-After is a politeness hint, not a promise.
func (s *Server) drainEstimate(depth int) time.Duration {
	w := s.cfg.Workers
	if w <= 0 {
		w = 1
	}
	d := time.Duration(depth/w) * time.Second
	if d < time.Second {
		d = time.Second
	}
	return d
}

// writeRetryError writes an overload rejection with a Retry-After hint
// (whole seconds, rounded up, floor 1).
func writeRetryError(w http.ResponseWriter, status int, retry time.Duration, err error) {
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, status, err)
}

// writeDecodeError maps a request-body decode failure to its status:
// 413 when the MaxBytesReader limit tripped, 400 otherwise — naming the
// offending field when the decoder knows it, so a client can fix the
// request instead of bisecting it.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
		return
	}
	var ute *json.UnmarshalTypeError
	if errors.As(err, &ute) && ute.Field != "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"decode request: field %q: want %s, got %s", ute.Field, ute.Type, ute.Value))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
}
