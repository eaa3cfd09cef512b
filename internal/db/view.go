package db

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/wal"
)

// BlockReader is the read-only volume interface. storage.Snapshot satisfies
// it, which is how the data-analytics application (§IV-D) opens the
// databases living on snapshot volumes without mutating them.
type BlockReader interface {
	Read(p *sim.Proc, block int64) ([]byte, error)
	SizeBlocks() int64
	BlockSize() int
}

// blockRangeReader is the optional fused sequential-scan interface
// (storage.Volume and storage.Snapshot implement it). The WAL replay reads
// the whole log region through it in one scheduler step instead of one per
// block.
type blockRangeReader interface {
	ReadRange(p *sim.Proc, start int64, count int) ([][]byte, error)
}

// readBlockRange reads count consecutive blocks, fused when the reader
// supports it.
func readBlockRange(p *sim.Proc, vol BlockReader, start int64, count int) ([][]byte, error) {
	if rr, ok := vol.(blockRangeReader); ok {
		return rr.ReadRange(p, start, count)
	}
	out := make([][]byte, count)
	for i := 0; i < count; i++ {
		blk, err := vol.Read(p, start+int64(i))
		if err != nil {
			return nil, err
		}
		out[i] = blk
	}
	return out, nil
}

// View is a read-only database opened from any BlockReader. It runs the
// same WAL replay as Open but keeps redone pages in a memory overlay, so
// the underlying image (typically a snapshot) is untouched. A scan preloads
// the data region as a dense image behind the overlay.
type View struct {
	name      string
	vol       BlockReader
	cfg       Config
	blockSize int
	walBase   int64
	dataBase  int64
	dataPages int64
	overlay   map[int64][]byte // replayed pages (caller-owned copies)
	image     [][]byte         // preloaded data region (shared, read-only)
	committed map[uint64]bool
	recovered int
	replayDur time.Duration
	torn      bool
}

// OpenView attaches read-only to a formatted volume image and replays its
// WAL valid prefix in memory.
func OpenView(p *sim.Proc, name string, vol BlockReader, cfg Config) (*View, error) {
	cfg = cfg.withDefaults()
	v := &View{
		name:      name,
		vol:       vol,
		cfg:       cfg,
		blockSize: vol.BlockSize(),
		walBase:   1,
		dataBase:  int64(1 + cfg.WALBlocks),
		dataPages: vol.SizeBlocks() - int64(1+cfg.WALBlocks),
		overlay:   make(map[int64][]byte),
		committed: make(map[uint64]bool),
	}
	if v.dataPages <= 0 {
		return nil, fmt.Errorf("%w: %d blocks with %d WAL blocks", ErrVolumeTooSmall, vol.SizeBlocks(), cfg.WALBlocks)
	}
	sb, err := vol.Read(p, 0)
	if err != nil {
		return nil, err
	}
	meta, ok := decodeSuperblock(sb)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFormatted, name)
	}
	if meta.walBlocks != uint32(cfg.WALBlocks) {
		return nil, fmt.Errorf("db: view %s: WAL size mismatch: on-disk %d, config %d", name, meta.walBlocks, cfg.WALBlocks)
	}
	start := p.Now()
	blocks, err := readBlockRange(p, vol, v.walBase, cfg.WALBlocks)
	if err != nil {
		return nil, err
	}
	recs, err := wal.ScanLog(blocks, meta.epoch)
	if err != nil && !errors.Is(err, wal.ErrCorrupt) {
		return nil, err
	}
	v.torn = errors.Is(err, wal.ErrCorrupt)
	durable := make(map[uint64]bool)
	for _, r := range recs {
		if r.Type == wal.TypeCommit {
			durable[r.TxID] = true
		}
	}
	for _, r := range recs {
		if r.Type != wal.TypeUpdate || !durable[r.TxID] {
			continue
		}
		page, err := v.loadPage(p, v.pageBlock(r.Key))
		if err != nil {
			return nil, err
		}
		if err := pageUpsert(page, Row{Key: r.Key, TxID: r.TxID, Val: r.Val}); err != nil {
			return nil, fmt.Errorf("db: view %s: redo tx %d: %w", name, r.TxID, err)
		}
	}
	v.committed = durable
	v.recovered = len(durable)
	v.replayDur = p.Now() - start
	return v, nil
}

func (v *View) pageBlock(key uint64) int64 {
	return v.dataBase + int64(key%uint64(v.dataPages))
}

// loadPage returns the overlay page, else the preloaded image page, else a
// copy read into the overlay. Only the WAL replay writes into the pages it
// gets, and it runs before any preload, so it always gets overlay copies.
func (v *View) loadPage(p *sim.Proc, block int64) ([]byte, error) {
	if pg, ok := v.overlay[block]; ok {
		return pg, nil
	}
	if v.image != nil {
		return v.image[block-v.dataBase], nil
	}
	pg, err := v.vol.Read(p, block)
	if err != nil {
		return nil, err
	}
	v.overlay[block] = pg
	return pg, nil
}

// Name returns the view name.
func (v *View) Name() string { return v.name }

// Get returns the value for key and whether it exists.
func (v *View) Get(p *sim.Proc, key uint64) ([]byte, bool, error) {
	if key == 0 {
		return nil, false, ErrZeroKey
	}
	page, err := v.loadPage(p, v.pageBlock(key))
	if err != nil {
		return nil, false, err
	}
	row, ok := pageLookup(page, key)
	if !ok {
		return nil, false, nil
	}
	return row.Val, true, nil
}

// Scan visits every row in page order; fn returning false stops the scan.
// A scan is sequential by nature, so the data region is preloaded with one
// fused range read (when the image supports it) instead of one random read
// per page.
func (v *View) Scan(p *sim.Proc, fn func(Row) bool) error {
	if err := v.preload(p); err != nil {
		return err
	}
	for b := v.dataBase; b < v.dataBase+v.dataPages; b++ {
		page, err := v.loadPage(p, b)
		if err != nil {
			return err
		}
		for _, row := range pageRows(page) {
			if !fn(row) {
				return nil
			}
		}
	}
	return nil
}

// preload reads the whole data region with one fused sequential read and
// keeps it as the image behind the overlay: pages replayed from the WAL
// still take precedence.
func (v *View) preload(p *sim.Proc) error {
	rr, ok := v.vol.(blockRangeReader)
	if v.image != nil || !ok {
		return nil // preloaded already, or per-page loads below
	}
	blocks, err := rr.ReadRange(p, v.dataBase, int(v.dataPages))
	v.image = blocks
	return err
}

// CommittedTxns returns the transaction IDs whose commit record was in the
// image's WAL valid prefix, sorted ascending.
func (v *View) CommittedTxns() []uint64 {
	out := slices.AppendSeq(make([]uint64, 0, len(v.committed)), maps.Keys(v.committed))
	slices.Sort(out)
	return out
}

// HasCommitted reports whether the transaction ID committed in this image.
func (v *View) HasCommitted(txid uint64) bool { return v.committed[txid] }

// RecoveredTxns returns how many committed transactions the replay found.
func (v *View) RecoveredTxns() int { return v.recovered }

// ReplayTime returns the simulated time the WAL replay took.
func (v *View) ReplayTime() time.Duration { return v.replayDur }

// SawTornTail reports whether the WAL prefix ended in a torn record.
func (v *View) SawTornTail() bool { return v.torn }
