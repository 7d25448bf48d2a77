package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"xvolt/internal/units"
)

// Checkpoint persists a characterization campaign's progress so that a
// multi-month study (the paper's ran for six months on one machine, §3.2)
// survives interruption: completed (benchmark, core) sweeps are recorded
// with their raw run logs and skipped on resume.
//
// On disk a checkpoint is a journal of JSON lines: a version line, then
// one {"key":…,"records":[…]} line per completed campaign. With a journal
// attached (SetJournal), ExecuteResumable appends and syncs each
// campaign's line as the study accounts for it, so a study killed midway
// resumes after its last accounted campaign. A kill mid-append leaves a
// torn final line, which LoadCheckpoint drops.
type Checkpoint struct {
	// Done lists the completed campaign keys ("chip/benchmark/input/core/freq").
	Done []string
	// Records holds the raw execution-phase log of the completed sweeps,
	// campaign by campaign in Done order.
	Records []RunRecord

	ends    []int     // Records[ends[i-1]:ends[i]] are Done[i]'s records
	journal io.Writer // receives the line of every campaign marked
}

// checkpointVersion is the current format version. Version 1 was one
// JSON document, written once a study had ended.
const checkpointVersion = 2

// checkpointHeader is a checkpoint's first line.
type checkpointHeader struct {
	Version int `json:"version"`
}

// checkpointLine is one completed campaign's line.
type checkpointLine struct {
	Key     string      `json:"key"`
	Records []RunRecord `json:"records"`
}

// campaignKey identifies one (benchmark, core) sweep within a configuration.
func campaignKey(chip, bench, input string, core int, freq units.MegaHertz) string {
	return fmt.Sprintf("%s/%s/%s/%d/%d", chip, bench, input, core, int(freq))
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{}
}

// SetJournal appends the line of every campaign marked from now on to w,
// syncing after each line when w has a Sync method (an *os.File). w
// should already hold the checkpoint as Save writes it.
func (c *Checkpoint) SetJournal(w io.Writer) { c.journal = w }

// Save writes the whole checkpoint: the version line, then one line per
// completed campaign.
func (c *Checkpoint) Save(w io.Writer) error {
	if err := writeLine(w, checkpointHeader{Version: checkpointVersion}); err != nil {
		return err
	}
	start := 0
	for i, key := range c.Done {
		if err := writeLine(w, checkpointLine{Key: key, Records: c.Records[start:c.ends[i]]}); err != nil {
			return err
		}
		start = c.ends[i]
	}
	return nil
}

// writeLine writes v as one JSON line in a single Write, so an
// interrupted append can tear only the final line.
func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// LoadCheckpoint parses a checkpoint written by Save and SetJournal. A
// line counts once its newline is written: bytes after the last newline
// are a torn append and are dropped. Any other malformed line is an
// error.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	whole := bytes.LastIndexByte(data, '\n')
	if whole < 0 {
		return nil, errors.New("core: corrupt checkpoint: no version line")
	}
	lines := bytes.Split(data[:whole], []byte{'\n'})
	var hdr checkpointHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		// A version-1 checkpoint is one indented JSON document, so its
		// first line is not a JSON value of its own.
		if json.Unmarshal(data, &hdr) != nil || hdr.Version != 1 {
			return nil, fmt.Errorf("core: corrupt checkpoint: version line: %w", err)
		}
	}
	if hdr.Version == 1 {
		return nil, errors.New("core: checkpoint version 1 (one JSON document) is not supported: remove it and rerun the study")
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d unsupported", hdr.Version)
	}
	c := NewCheckpoint()
	for i, line := range lines[1:] {
		var l checkpointLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, fmt.Errorf("core: corrupt checkpoint: line %d: %w", i+2, err)
		}
		if l.Key == "" || c.has(l.Key) {
			return nil, fmt.Errorf("core: corrupt checkpoint: line %d: missing or repeated campaign key %q", i+2, l.Key)
		}
		c.add(l.Key, l.Records)
	}
	return c, nil
}

// has reports whether a campaign is already completed.
func (c *Checkpoint) has(key string) bool {
	for _, k := range c.Done {
		if k == key {
			return true
		}
	}
	return false
}

// mark records a completed campaign with its raw records, first
// appending its line to the journal, if one is attached. Marking a
// completed campaign again changes nothing.
func (c *Checkpoint) mark(key string, recs []RunRecord) error {
	if c.has(key) {
		return nil
	}
	if c.journal != nil {
		if err := writeLine(c.journal, checkpointLine{Key: key, Records: recs}); err != nil {
			return fmt.Errorf("core: checkpoint journal: %w", err)
		}
		if s, ok := c.journal.(interface{ Sync() error }); ok {
			if err := s.Sync(); err != nil {
				return fmt.Errorf("core: checkpoint journal: %w", err)
			}
		}
	}
	c.add(key, recs)
	return nil
}

// add records a completed campaign in memory.
func (c *Checkpoint) add(key string, recs []RunRecord) {
	c.Done = append(c.Done, key)
	c.Records = append(c.Records, recs...)
	c.ends = append(c.ends, len(c.Records))
}

// ExecuteResumable runs the execution phase like Execute, but skips every
// (benchmark, core) sweep already present in ckpt and runs the rest on
// the worker pool. Each new sweep is marked in ckpt, and journaled if
// ckpt has a journal, as the grid-order drain accounts for it, so a
// study stopped midway keeps every campaign accounted before the stop.
// A journal error stops the study and is returned. The returned records
// are the checkpoint's full set (old + new), so Parse over them
// reconstructs the whole study. Per-campaign seeding makes a resumed
// study identical to an uninterrupted one: skipping completed sweeps
// never shifts the RNG stream of the remaining campaigns.
func (r *LadderRunner) ExecuteResumable(cfg Config, ckpt *Checkpoint) ([]RunRecord, error) {
	if ckpt == nil {
		return nil, errors.New("core: nil checkpoint")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r.board == nil {
		return nil, errors.New("core: runner has no machine factory")
	}
	chip := r.board.Chip().Name // campaign keys name the chip

	var pending []Campaign
	var keys []string
	for _, c := range cfg.Grid() {
		if key := campaignKey(chip, c.Spec.Name, c.Spec.Input, c.Core, cfg.Frequency); !ckpt.has(key) {
			pending = append(pending, c)
			keys = append(keys, key)
		}
	}
	if _, err := r.executeGrid(cfg, pending, func(i int, s *sweep) error {
		return ckpt.mark(keys[i], s.appendRecords(nil))
	}); err != nil {
		return nil, err
	}
	return append([]RunRecord(nil), ckpt.Records...), nil
}
