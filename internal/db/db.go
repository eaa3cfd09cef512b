// Package db is the transactional record store the demonstration's Oracle
// databases are substituted with. One DB instance lives on one storage
// volume (through the replication.BlockWriter interface, so the same code
// runs unreplicated, under ADC, or under SDC).
//
// Durability protocol (redo-only, no-steal/no-force):
//
//   - updates buffer in the transaction until Commit;
//   - Commit writes the transaction's update records plus a commit record
//     to the WAL region and acknowledges after those block writes — commit
//     latency is therefore exactly the volume's write-ack latency, which is
//     what makes the SDC-vs-ADC slowdown measurable at the database level;
//   - data pages are updated in memory and flushed only at Checkpoint, so
//     pages on disk never contain uncommitted data (no undo needed);
//   - Open replays the WAL's valid prefix: transactions with a commit
//     record in the prefix are redone in log order, everything else is
//     discarded.
//
// Volume layout: block 0 superblock | blocks 1..WALBlocks WAL | data pages.
package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"time"

	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Database-level errors.
var (
	// ErrNotFormatted reports a volume without a valid superblock.
	ErrNotFormatted = errors.New("db: volume is not a formatted database")
	// ErrTxnTooLarge reports a transaction whose WAL footprint exceeds the
	// whole WAL region.
	ErrTxnTooLarge = errors.New("db: transaction exceeds WAL capacity")
	// ErrVolumeTooSmall reports a volume without room for WAL plus data.
	ErrVolumeTooSmall = errors.New("db: volume too small")
	// ErrTxnDone reports reuse of a committed or aborted transaction.
	ErrTxnDone = errors.New("db: transaction already finished")
)

// Config tunes a database instance.
type Config struct {
	// WALBlocks is the size of the WAL region in blocks (default 64).
	WALBlocks int
}

func (c Config) withDefaults() Config {
	if c.WALBlocks <= 0 {
		c.WALBlocks = 64
	}
	return c
}

// DB is one database instance on one volume.
type DB struct {
	name string
	vol  replication.BlockWriter
	cfg  Config

	blockSize int
	walBase   int64 // first WAL block
	dataBase  int64 // first data page block
	dataPages int64

	epoch    uint32
	walSeq   uint32 // sequence (and region offset) of the current head block
	walBuf   []byte // encoded records in the head block (no header)
	nextTxID uint64

	pages     map[int64][]byte // cached data pages by absolute block index
	dirty     map[int64]bool
	committed map[uint64]bool
	mu        *sim.Resource // serializes commits and checkpoints

	// Commit-path scratch, reused under mu so steady-state commits do not
	// allocate per record (the E11 fleet runs hundreds of databases).
	encBuf     []byte   // all of one transaction's encoded records
	encOffs    []int    // record end offsets in encBuf
	encSlices  [][]byte // per-record views into encBuf
	sizeBuf    []int    // per-record encoded sizes
	probeBuf   []byte   // page copy for pre-commit room probing
	blkScratch []byte   // block staging for WAL/superblock writes

	// Stats.
	commits         int64
	walWrites       int64
	pageFlushes     int64
	checkpoints     int64
	recoveredTxns   int
	recoveryTime    time.Duration
	recoveryCorrupt bool
}

// Open attaches to the volume, formatting it on first use and running
// crash recovery otherwise. Recovery cost (reads, page redo, checkpoint) is
// paid in simulated time; RecoveryTime reports it.
func Open(p *sim.Proc, name string, vol replication.BlockWriter, cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	d := &DB{
		name:      name,
		vol:       vol,
		cfg:       cfg,
		blockSize: vol.BlockSize(),
		walBase:   1,
		dataBase:  int64(1 + cfg.WALBlocks),
		dataPages: vol.SizeBlocks() - int64(1+cfg.WALBlocks),
		pages:     make(map[int64][]byte),
		dirty:     make(map[int64]bool),
		committed: make(map[uint64]bool),
		nextTxID:  1,
		epoch:     1,
		mu:        p.Env().NewResource(1),
	}
	if d.dataPages <= 0 {
		return nil, fmt.Errorf("%w: %d blocks with %d WAL blocks", ErrVolumeTooSmall, vol.SizeBlocks(), cfg.WALBlocks)
	}
	sb, err := vol.Read(p, 0)
	if err != nil {
		return nil, err
	}
	meta, ok := decodeSuperblock(sb)
	if !ok {
		// Fresh volume: format it.
		if err := d.writeSuperblock(p); err != nil {
			return nil, err
		}
		return d, nil
	}
	if meta.walBlocks != uint32(cfg.WALBlocks) {
		return nil, fmt.Errorf("db: %s: WAL size mismatch: on-disk %d, config %d", name, meta.walBlocks, cfg.WALBlocks)
	}
	d.epoch = meta.epoch
	d.nextTxID = meta.nextTxID
	if err := d.recover(p); err != nil {
		return nil, err
	}
	return d, nil
}

// recover replays the WAL valid prefix and checkpoints the result.
func (d *DB) recover(p *sim.Proc) error {
	start := p.Now()
	blocks, err := readBlockRange(p, d.vol, d.walBase, d.cfg.WALBlocks)
	if err != nil {
		return err
	}
	recs, err := wal.ScanLog(blocks, d.epoch)
	if err != nil && !errors.Is(err, wal.ErrCorrupt) {
		return err
	}
	d.recoveryCorrupt = errors.Is(err, wal.ErrCorrupt)
	// Analysis: find transactions whose commit record survived.
	durable := make(map[uint64]bool)
	for _, r := range recs {
		if r.Type == wal.TypeCommit {
			durable[r.TxID] = true
		}
		if r.TxID >= d.nextTxID {
			d.nextTxID = r.TxID + 1
		}
	}
	// Redo committed transactions' updates in log order.
	for _, r := range recs {
		if r.Type != wal.TypeUpdate || !durable[r.TxID] {
			continue
		}
		page, err := d.loadPage(p, d.pageBlock(r.Key))
		if err != nil {
			return err
		}
		if err := pageUpsert(page, Row{Key: r.Key, TxID: r.TxID, Val: r.Val}); err != nil {
			return fmt.Errorf("db: %s: redo tx %d: %w", d.name, r.TxID, err)
		}
		d.dirty[d.pageBlock(r.Key)] = true
	}
	for id := range durable {
		d.committed[id] = true
	}
	d.recoveredTxns = len(durable)
	// Checkpoint so the replay is durable and the WAL restarts fresh.
	if err := d.Checkpoint(p); err != nil {
		return err
	}
	d.recoveryTime = p.Now() - start
	return nil
}

// Name returns the database name.
func (d *DB) Name() string { return d.name }

// pageBlock maps a key to its home page's absolute block index.
func (d *DB) pageBlock(key uint64) int64 {
	return d.dataBase + int64(key%uint64(d.dataPages))
}

// loadPage returns the cached page, reading it from the volume on miss.
func (d *DB) loadPage(p *sim.Proc, block int64) ([]byte, error) {
	if pg, ok := d.pages[block]; ok {
		return pg, nil
	}
	pg, err := d.vol.Read(p, block)
	if err != nil {
		return nil, err
	}
	d.pages[block] = pg
	return pg, nil
}

// Get returns the value for key and whether it exists.
func (d *DB) Get(p *sim.Proc, key uint64) ([]byte, bool, error) {
	if key == 0 {
		return nil, false, ErrZeroKey
	}
	page, err := d.loadPage(p, d.pageBlock(key))
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
func (d *DB) Scan(p *sim.Proc, fn func(Row) bool) error {
	// Sequential scan: pull any uncached part of the data region with one
	// fused range read instead of one random read per page. Cached (and in
	// particular dirty) pages are kept. The range is shared with the volume
	// and commits write into cached pages, so the pages inserted here are
	// copied, into one backing allocation.
	if rr, ok := d.vol.(blockRangeReader); ok {
		missing := 0
		for b := d.dataBase; b < d.dataBase+d.dataPages; b++ {
			if _, ok := d.pages[b]; !ok {
				missing++
			}
		}
		if missing > 0 {
			blocks, err := rr.ReadRange(p, d.dataBase, int(d.dataPages))
			if err != nil {
				return err
			}
			backing := make([]byte, 0, missing*d.blockSize)
			for i, blk := range blocks {
				b := d.dataBase + int64(i)
				if _, ok := d.pages[b]; !ok {
					backing = append(backing, blk...)
					d.pages[b] = backing[len(backing)-len(blk) : len(backing) : len(backing)]
				}
			}
		}
	}
	for b := d.dataBase; b < d.dataBase+d.dataPages; b++ {
		page, err := d.loadPage(p, b)
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

// walCapacity is the usable bytes per WAL block.
func (d *DB) walCapacity() int { return d.blockSize - wal.BlockHeaderSize }

// flushWAL appends encoded records to the log and writes every affected
// block: blocks sealed during this flush in their final full form, then the
// (possibly partial) head block. The head block is rewritten in place as it
// fills across commits; the block header's (epoch, seq) keeps scans honest.
func (d *DB) flushWAL(p *sim.Proc, encodedRecs [][]byte) error {
	// Dry-run the packing before touching any state. The overflow error used
	// to fire mid-seal, leaving walSeq past the region end and walBuf reset —
	// a state in which a later head-block write would have landed on the
	// first data page.
	sizes := d.sizeBuf[:0]
	for _, rec := range encodedRecs {
		sizes = append(sizes, len(rec))
	}
	d.sizeBuf = sizes
	if seq, _ := d.walEndPosition(sizes); seq >= d.cfg.WALBlocks {
		return fmt.Errorf("db: %s: WAL overflow during flush", d.name)
	}
	for _, rec := range encodedRecs {
		if len(d.walBuf)+len(rec) > d.walCapacity() {
			if err := d.writeWALBlock(p, d.walSeq, d.walBuf); err != nil {
				return err
			}
			d.walSeq++
			d.walBuf = d.walBuf[:0]
		}
		d.walBuf = append(d.walBuf, rec...)
	}
	return d.writeWALBlock(p, d.walSeq, d.walBuf)
}

// writeWALBlock stages one WAL block in the reusable scratch and writes it
// (the volume copies the data, so the scratch can be reused immediately).
func (d *DB) writeWALBlock(p *sim.Proc, seq uint32, recs []byte) error {
	blk := d.scratchBlock()
	wal.PutBlockHeader(blk, d.epoch, seq)
	copy(blk[wal.BlockHeaderSize:], recs)
	if _, err := d.vol.Write(p, d.walBase+int64(seq), blk); err != nil {
		return err
	}
	d.walWrites++
	return nil
}

// scratchBlock returns the zeroed block-size staging buffer.
func (d *DB) scratchBlock() []byte {
	if d.blkScratch == nil {
		d.blkScratch = make([]byte, d.blockSize)
	} else {
		clear(d.blkScratch)
	}
	return d.blkScratch
}

// walEndPosition returns the head position (block index within the WAL
// region, bytes used in that block) after packing records of the given
// sizes from the current head, honoring the records-never-span-blocks
// rule. It is the single definition of the packing rule that walFits and
// flushWAL's overflow dry-run share; it does not bounds-check the region.
func (d *DB) walEndPosition(sizes []int) (seq, buf int) {
	seq, buf = int(d.walSeq), len(d.walBuf)
	for _, n := range sizes {
		if buf+n > d.walCapacity() {
			seq++
			buf = 0
		}
		buf += n
	}
	return seq, buf
}

// walFits reports whether records of the given encoded sizes can be packed
// into the remaining WAL region from the current head position.
func (d *DB) walFits(sizes []int) bool {
	if int(d.walSeq) >= d.cfg.WALBlocks {
		// Head already past the region end (cannot happen unless state was
		// corrupted, but the last-block boundary must fail closed here, not
		// pass because no record happens to cross a block boundary).
		return false
	}
	seq, _ := d.walEndPosition(sizes)
	return seq < d.cfg.WALBlocks
}

// Checkpoint flushes dirty pages, bumps the log epoch, and resets the WAL
// head — the no-force flush point.
func (d *DB) Checkpoint(p *sim.Proc) error {
	blocks := slices.AppendSeq(make([]int64, 0, len(d.dirty)), maps.Keys(d.dirty))
	slices.Sort(blocks)
	for _, b := range blocks {
		if _, err := d.vol.Write(p, b, d.pages[b]); err != nil {
			return err
		}
		d.pageFlushes++
		delete(d.dirty, b)
	}
	d.epoch++
	d.walSeq = 0
	d.walBuf = d.walBuf[:0]
	if err := d.writeSuperblock(p); err != nil {
		return err
	}
	d.checkpoints++
	return nil
}

// CommittedTxns returns the IDs of every transaction known committed (from
// recovery plus this session), sorted ascending. The consistency verifier
// compares these sets across databases.
func (d *DB) CommittedTxns() []uint64 {
	out := slices.AppendSeq(make([]uint64, 0, len(d.committed)), maps.Keys(d.committed))
	slices.Sort(out)
	return out
}

// HasCommitted reports whether the transaction ID is known committed.
func (d *DB) HasCommitted(txid uint64) bool { return d.committed[txid] }

// Commits returns the number of transactions committed this session.
func (d *DB) Commits() int64 { return d.commits }

// WALWrites returns the number of WAL block writes issued.
func (d *DB) WALWrites() int64 { return d.walWrites }

// PageFlushes returns the number of data-page writes issued.
func (d *DB) PageFlushes() int64 { return d.pageFlushes }

// Checkpoints returns the number of checkpoints taken.
func (d *DB) Checkpoints() int64 { return d.checkpoints }

// RecoveredTxns returns how many committed transactions recovery replayed.
func (d *DB) RecoveredTxns() int { return d.recoveredTxns }

// RecoveryTime returns the simulated time recovery took at Open (zero for a
// freshly formatted volume).
func (d *DB) RecoveryTime() time.Duration { return d.recoveryTime }

// RecoverySawTornTail reports whether recovery hit a torn record at the end
// of the WAL prefix (normal after a mid-write crash; the prefix before the
// tear was replayed).
func (d *DB) RecoverySawTornTail() bool { return d.recoveryCorrupt }

// Superblock layout: magic(4) + version(2) + epoch(4) + walBlocks(4) +
// nextTxID(8) + crc(4).
const (
	sbMagic   = 0x5A42_4442 // "ZBDB"
	sbVersion = 1
	sbSize    = 4 + 2 + 4 + 4 + 8 + 4
)

type superblock struct {
	epoch     uint32
	walBlocks uint32
	nextTxID  uint64
}

func (d *DB) writeSuperblock(p *sim.Proc) error {
	blk := d.scratchBlock()
	binary.LittleEndian.PutUint32(blk[0:4], sbMagic)
	binary.LittleEndian.PutUint16(blk[4:6], sbVersion)
	binary.LittleEndian.PutUint32(blk[6:10], d.epoch)
	binary.LittleEndian.PutUint32(blk[10:14], uint32(d.cfg.WALBlocks))
	binary.LittleEndian.PutUint64(blk[14:22], d.nextTxID)
	binary.LittleEndian.PutUint32(blk[22:26], crc32.ChecksumIEEE(blk[0:22]))
	_, err := d.vol.Write(p, 0, blk)
	return err
}

func decodeSuperblock(blk []byte) (superblock, bool) {
	if len(blk) < sbSize {
		return superblock{}, false
	}
	if binary.LittleEndian.Uint32(blk[0:4]) != sbMagic {
		return superblock{}, false
	}
	if binary.LittleEndian.Uint32(blk[22:26]) != crc32.ChecksumIEEE(blk[0:22]) {
		return superblock{}, false
	}
	return superblock{
		epoch:     binary.LittleEndian.Uint32(blk[6:10]),
		walBlocks: binary.LittleEndian.Uint32(blk[10:14]),
		nextTxID:  binary.LittleEndian.Uint64(blk[14:22]),
	}, true
}

func (d *DB) String() string {
	return fmt.Sprintf("DB(%s){epoch=%d commits=%d}", d.name, d.epoch, d.commits)
}
