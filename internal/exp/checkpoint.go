package exp

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"strings"

	"ultrascalar/internal/atomicio"
	"ultrascalar/internal/fault"
	"ultrascalar/internal/obs"
)

// The shard checkpoint is the one crash story of every fault campaign,
// whether usfault runs it in one process or a fleet coordinator spreads
// it over usserve workers. The file is JSONL: a header line binding the
// campaign fingerprint, then one line per completed shard in the order
// the shards completed. Resuming verifies the header so a stale file
// from a differently-configured campaign fails loudly instead of
// silently mixing results. Because both runners fingerprint the same
// FaultCampaignConfig, a usfault checkpoint and a usfleet checkpoint of
// the same campaign are interchangeable.

type checkpointHeader struct {
	Magic       string `json:"magic"`
	Fingerprint string `json:"fingerprint"`
}

type checkpointLine struct {
	Shard string     `json:"shard"`
	Cell  fault.Cell `json:"cell"`
}

// v2: point seeds are keyed by shard identity (arch/workload/site)
// instead of shard index, so v1 checkpoints hold cells a v2 campaign
// would not reproduce; the magic bump makes them fail loudly.
const checkpointMagic = "usfault-checkpoint/v2"

// Fingerprint binds a checkpoint to everything that shapes shard
// results. It is computed after defaults are applied, so a zero Cluster
// and an explicit Window/4 name the same campaign.
func (cfg FaultCampaignConfig) Fingerprint() string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d n=%d window=%d cluster=%d detect=%s archs=%s",
		cfg.Seed, cfg.N, cfg.Window, cfg.Cluster, cfg.Detect, strings.Join(cfg.Archs, ","))
	b.WriteString(" sites=")
	for i, s := range cfg.Sites {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.String())
	}
	b.WriteString(" workloads=")
	for i, w := range cfg.Workloads {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(w.Name)
	}
	return b.String()
}

// Checkpointer records completed shards; an empty path means
// checkpointing is off. Every Record rewrites the whole file through
// atomicio.WriteFile, so a crash — even mid-write, even power loss —
// leaves the previous complete checkpoint rather than a torn one. The
// lines slice keeps the file's exact content in memory (header first),
// which also keeps shard order stable across rewrites. A Checkpointer
// is not safe for concurrent use.
type Checkpointer struct {
	path  string
	lines []string
	done  map[string]fault.Cell
}

// OpenCheckpoint loads the checkpoint at path (verifying its
// fingerprint), or creates it holding just the header when it does not
// exist, and prepares the checkpointer for recording new shards. A
// truncated final line — the signature of a crash mid-append under the
// pre-atomic format, or of filesystem-level truncation — is detected
// and dropped: that shard simply reruns. An empty file, a foreign
// magic and corruption anywhere else fail loudly, since none of them
// can be explained by a torn tail.
func OpenCheckpoint(path, fingerprint string) (*Checkpointer, error) {
	ck := &Checkpointer{path: path, done: map[string]fault.Cell{}}
	if path == "" {
		return ck, nil
	}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		hdr, _ := json.Marshal(checkpointHeader{Magic: checkpointMagic, Fingerprint: fingerprint})
		ck.lines = []string{string(hdr)}
		if err := ck.flush(); err != nil {
			return nil, err
		}
		return ck, nil
	case err != nil:
		return nil, fmt.Errorf("exp: reading checkpoint: %w", err)
	}
	var lines []string
	// The shared big-buffer scanner: checkpoint records can exceed
	// bufio.Scanner's default 64 KiB token cap.
	sc := obs.NewLineScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("exp: reading checkpoint %s: %w", path, err)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("exp: checkpoint %s is empty", path)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Magic != checkpointMagic {
		return nil, fmt.Errorf("exp: %s is not a %s checkpoint", path, checkpointMagic)
	}
	if hdr.Fingerprint != fingerprint {
		return nil, fmt.Errorf("exp: checkpoint %s was written by a different campaign\n  have: %s\n  want: %s",
			path, hdr.Fingerprint, fingerprint)
	}
	ck.lines = lines[:1]
	for i, raw := range lines[1:] {
		var line checkpointLine
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			if i == len(lines[1:])-1 {
				break // torn tail: drop the partial shard, it reruns
			}
			return nil, fmt.Errorf("exp: corrupt checkpoint line %q: %w", raw, err)
		}
		ck.done[line.Shard] = line.Cell
		ck.lines = append(ck.lines, raw)
	}
	// Rewrite immediately so a dropped torn tail does not linger on disk.
	if err := ck.flush(); err != nil {
		return nil, err
	}
	return ck, nil
}

// Done returns a copy of the completed cells by shard key.
func (c *Checkpointer) Done() map[string]fault.Cell {
	return maps.Clone(c.done)
}

// Record persists one completed shard by atomically rewriting the
// file. A failed write leaves both the file and the in-memory done set
// as they were, so the shard is simply not yet checkpointed.
func (c *Checkpointer) Record(key string, cell fault.Cell) error {
	if c.path == "" {
		return nil
	}
	line, err := json.Marshal(checkpointLine{Shard: key, Cell: cell})
	if err != nil {
		return err
	}
	c.lines = append(c.lines, string(line))
	if err := c.flush(); err != nil {
		c.lines = c.lines[:len(c.lines)-1]
		return err
	}
	c.done[key] = cell
	return nil
}

// flush writes the in-memory checkpoint image to disk crash-atomically.
func (c *Checkpointer) flush() error {
	if err := atomicio.WriteFile(c.path, []byte(strings.Join(c.lines, "\n")+"\n"), 0o644); err != nil {
		return fmt.Errorf("exp: writing checkpoint: %w", err)
	}
	return nil
}
