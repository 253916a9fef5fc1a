package ingest

import (
	"fmt"
	"sort"
	"time"

	"psd/internal/recordlog"
)

// The versions journal is the publish-cycle commit log. Each publication
// walks a fixed durable order:
//
//  1. intent record     — version, point count P, seed, ε   (fsync)
//  2. ledger charge     — ε recorded in the privacy ledger  (fsync)
//  3. deterministic build over the first P WAL points with the recorded seed
//  4. atomic artifact publish (name@vN.bin via tmp+fsync+rename)
//  5. published record  — artifact CRC and size             (fsync)
//
// A crash between any two steps leaves a pending intent (an intent with no
// published record). Because the build is a pure function of (P, seed, ε)
// and the WAL durably holds at least P points (the intent is written only
// after they were acknowledged), recovery can always roll FORWARD: re-charge
// if the ledger lacks the version's label, rebuild, republish — and the
// artifact is byte-identical to what the uncrashed run would have produced.
// The ledger is charged before the artifact is visible, so no published
// release can ever be un-charged; the worst crash outcome is a charged,
// never-visible epoch — over-counting, the safe direction.
//
// Journal lines use the same recordlog framing as the privacy ledger:
//
//	PSDJ1 <crc64-hex> <json>\n
const journalLinePrefix = "PSDJ1 "

// Journal phases.
const (
	phaseIntent    = "intent"
	phasePublished = "published"
	// phaseAbandoned closes out an intent that can never complete (for
	// example the budget was shrunk below its ε between runs). Recovery
	// writes it so the pending set converges instead of retrying forever.
	phaseAbandoned = "abandoned"
)

// VersionRecord is the JSON shape of one journal line.
type VersionRecord struct {
	Seq     uint64    `json:"seq"`
	Version int       `json:"version"`
	Phase   string    `json:"phase"`
	Points  uint64    `json:"points,omitempty"`
	Seed    int64     `json:"seed,omitempty"`
	Eps     float64   `json:"eps,omitempty"`
	CRC64   string    `json:"crc64,omitempty"`
	Bytes   int64     `json:"bytes,omitempty"`
	Reason  string    `json:"reason,omitempty"`
	At      time.Time `json:"at"`
}

// versionState is the replayed fate of one version.
type versionState struct {
	intent    VersionRecord
	published *VersionRecord
	abandoned bool
}

// Journal is the open versions journal.
type Journal struct {
	log      *recordlog.Log[VersionRecord]
	seq      uint64
	versions map[int]*versionState
	maxVer   int
}

// OpenJournal opens (creating if absent) the versions journal at path and
// replays it. Torn final lines are truncated; corruption with complete
// records following fails loudly (acknowledged publish history would be
// unreadable).
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{versions: make(map[int]*versionState)}
	log, err := recordlog.Open(path, journalLinePrefix, j.apply)
	if err != nil {
		return nil, fmt.Errorf("ingest: versions journal: %w", err)
	}
	j.log = log
	return j, nil
}

// apply advances the publish state machine by one record: every replayed
// record, and every new one once it is durable.
func (j *Journal) apply(rec VersionRecord) error {
	if rec.Seq != j.seq+1 {
		return fmt.Errorf("record %d out of sequence (want %d)", rec.Seq, j.seq+1)
	}
	st := j.versions[rec.Version]
	switch rec.Phase {
	case phaseIntent:
		if st != nil {
			return fmt.Errorf("duplicate intent for v%d", rec.Version)
		}
		if rec.Version <= j.maxVer {
			return fmt.Errorf("intent for v%d not above max version v%d", rec.Version, j.maxVer)
		}
		j.versions[rec.Version] = &versionState{intent: rec}
		j.maxVer = rec.Version
	case phasePublished:
		if st == nil || st.published != nil || st.abandoned {
			return fmt.Errorf("published record for v%d without a matching open intent", rec.Version)
		}
		r := rec
		st.published = &r
	case phaseAbandoned:
		if st == nil || st.published != nil {
			return fmt.Errorf("abandoned record for v%d without a matching open intent", rec.Version)
		}
		st.abandoned = true
	default:
		return fmt.Errorf("unknown phase %q", rec.Phase)
	}
	j.seq = rec.Seq
	return nil
}

// appendRecord stamps rec with the next seq and makes it durable.
func (j *Journal) appendRecord(rec VersionRecord) error {
	rec.Seq = j.seq + 1
	rec.At = time.Now().UTC()
	if err := j.log.Append(rec); err != nil {
		return fmt.Errorf("ingest: versions journal: %w", err)
	}
	return nil
}

// Intent durably records the decision to publish version v over the first
// points WAL points with the given seed and ε. It must precede the ledger
// charge: a crash after the charge can then still find (points, seed) and
// complete the exact same build.
func (j *Journal) Intent(v int, points uint64, seed int64, eps float64) error {
	return j.appendRecord(VersionRecord{Version: v, Phase: phaseIntent, Points: points, Seed: seed, Eps: eps})
}

// Published durably records that version v's artifact is visible, with its
// checksum and size.
func (j *Journal) Published(v int, crcHex string, size int64) error {
	return j.appendRecord(VersionRecord{Version: v, Phase: phasePublished, CRC64: crcHex, Bytes: size})
}

// Abandon durably closes out an uncompletable intent.
func (j *Journal) Abandon(v int, reason string) error {
	return j.appendRecord(VersionRecord{Version: v, Phase: phaseAbandoned, Reason: reason})
}

// NextVersion returns the version number a new intent must use: one above
// every version ever intended (published, pending, or abandoned — numbers
// are never reused, so seeds never collide).
func (j *Journal) NextVersion() int { return j.maxVer + 1 }

// Pending returns the intents with neither a published nor an abandoned
// record, in version order — what recovery must complete.
func (j *Journal) Pending() []VersionRecord {
	var out []VersionRecord
	for _, st := range j.versions {
		if st.published == nil && !st.abandoned {
			out = append(out, st.intent)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Version < out[b].Version })
	return out
}

// PublishedVersions returns the published records in version order.
func (j *Journal) PublishedVersions() []VersionRecord {
	var out []VersionRecord
	for _, st := range j.versions {
		if st.published != nil {
			r := *st.published
			r.Points, r.Seed, r.Eps = st.intent.Points, st.intent.Seed, st.intent.Eps
			out = append(out, r)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Version < out[b].Version })
	return out
}

// Latest returns the highest published version's record (with the intent's
// points/seed/ε folded in) and ok=false if nothing is published yet.
func (j *Journal) Latest() (VersionRecord, bool) {
	pubs := j.PublishedVersions()
	if len(pubs) == 0 {
		return VersionRecord{}, false
	}
	return pubs[len(pubs)-1], true
}

// Close releases the journal file handle.
func (j *Journal) Close() error { return j.log.Close() }
