// Staged-pipeline artifacts: the typed, serializable values the pipeline
// stages exchange. Each artifact has a stable JSON codec (deterministic
// field order, sorted slices instead of maps, integers that can exceed
// 2^53 encoded as strings) and a content hash over those canonical bytes,
// so artifacts can be persisted, shipped between processes (the vpackd
// daemon's deployment loop) and compared for identity. Staleness between
// an artifact and the program it is applied to is detected by image hash
// and reported as ErrStaleArtifact.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"

	"repro/internal/asm"
	"repro/internal/equiv"
	"repro/internal/pack"
	"repro/internal/phasedb"
	"repro/internal/prog"
	"repro/internal/region"
)

// ErrStaleArtifact reports that an artifact was applied to a program whose
// linearized image differs from the one the artifact was derived from
// (the profile's PCs, region block IDs or package provenance would be
// meaningless). It is always wrapped with the mismatching hashes via %w;
// match it with errors.Is.
var ErrStaleArtifact = errors.New("stale artifact: program image differs from the artifact's origin")

// Artifact schema markers, bumped on incompatible codec changes.
const (
	ProfileArtifactSchema = "vpartifact/profile/v1"
	RegionArtifactSchema  = "vpartifact/region/v1"
	PackageSetSchema      = "vpartifact/packageset/v1"
)

// ImageHash fingerprints a linearized program: every code slot, the entry
// address, the initial data segment and the scratch allocation count.
// Programs that linearize identically — a Clone of a profiled program, or
// the same benchmark built twice — hash identically, which is exactly the
// condition under which profile PCs and region block IDs transfer.
func ImageHash(img *prog.Image) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w64(uint64(img.Entry))
	w64(uint64(len(img.Code)))
	for i := range img.Code {
		in := &img.Code[i]
		w64(uint64(in.Op) | uint64(in.Rd)<<16 | uint64(in.Rs1)<<32 | uint64(in.Rs2)<<48)
		w64(uint64(in.Imm))
		w64(uint64(in.Target))
	}
	w64(uint64(len(img.Prog.Data)))
	for _, v := range img.Prog.Data {
		w64(uint64(v))
	}
	w64(uint64(img.Prog.ScratchWords))
	return h.Sum64()
}

// jsonHash hashes a value's canonical JSON encoding.
func jsonHash(v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// ProfileArtifact is stage 1's output: the filtered phase database plus
// the profiling statistics, stamped with the image hash of the profiled
// program and the ProfileKey of the configuration that produced it.
type ProfileArtifact struct {
	Schema string `json:"schema"`
	// Program optionally labels the profiled program (benchmark/input).
	Program string `json:"program,omitempty"`
	// ProgramHash is ImageHash of the profiled image; later stages refuse
	// (ErrStaleArtifact) to apply the artifact to a differing image.
	ProgramHash uint64 `json:"program_hash,string"`
	// ProfileKey is Config.ProfileKey() of the producing configuration.
	ProfileKey uint64       `json:"profile_key,string"`
	Stats      ProfileStats `json:"stats"`
	// Phases is the serialized phase database.
	Phases *phasedb.Snapshot `json:"phases"`

	// mu guards the lazy materializations below: the artifact is immutable
	// once staged, but concurrent consumers (the suite runner's variants,
	// vpackd's repack workers) may race to materialize them first.
	mu sync.Mutex
	// db is the live database; the snapshot above is materialized from it
	// on encode, and vice versa on decode.
	db *phasedb.DB
	// cached content hash.
	contentHash uint64
	hashed      bool
}

// newProfileArtifact wraps a live profiling result.
func newProfileArtifact(cfg Config, img *prog.Image, db *phasedb.DB, st ProfileStats) *ProfileArtifact {
	return &ProfileArtifact{
		Schema:      ProfileArtifactSchema,
		ProgramHash: ImageHash(img),
		ProfileKey:  cfg.ProfileKey(),
		Stats:       st,
		db:          db,
	}
}

// DB returns the live phase database, materializing it from the decoded
// snapshot on first use.
func (pa *ProfileArtifact) DB() *phasedb.DB {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	if pa.db == nil && pa.Phases != nil {
		pa.db = phasedb.FromSnapshot(pa.Phases)
	}
	return pa.db
}

// syncLocked materializes the serializable snapshot from the live
// database. Caller holds pa.mu.
func (pa *ProfileArtifact) syncLocked() {
	if pa.Phases == nil && pa.db != nil {
		pa.Phases = pa.db.Snapshot()
	}
}

// Hash returns the artifact's content hash (FNV-1a over the canonical
// JSON encoding), computed once and cached — artifacts are immutable
// after their stage returns.
func (pa *ProfileArtifact) Hash() (uint64, error) {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	if pa.hashed {
		return pa.contentHash, nil
	}
	pa.syncLocked()
	type plain ProfileArtifact
	h, err := jsonHash((*plain)(pa))
	if err != nil {
		return 0, err
	}
	pa.contentHash, pa.hashed = h, true
	return h, nil
}

// EncodeJSON writes the artifact's canonical JSON form.
func (pa *ProfileArtifact) EncodeJSON(w io.Writer) error {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	pa.syncLocked()
	type plain ProfileArtifact
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode((*plain)(pa))
}

// DecodeProfileArtifact reads an artifact previously written by
// EncodeJSON.
func DecodeProfileArtifact(r io.Reader) (*ProfileArtifact, error) {
	var pa ProfileArtifact
	if err := json.NewDecoder(r).Decode(&pa); err != nil {
		return nil, fmt.Errorf("core: decode profile artifact: %w", err)
	}
	if pa.Schema != ProfileArtifactSchema {
		return nil, fmt.Errorf("core: decode profile artifact: schema %q, want %q", pa.Schema, ProfileArtifactSchema)
	}
	return &pa, nil
}

// RegionBlock is one block's temperature record inside a RegionRecord.
// Blocks are referenced by their program-wide IDs, which Clone preserves.
type RegionBlock struct {
	Block  int         `json:"block"`
	Temp   region.Temp `json:"temp"`
	Weight uint64      `json:"weight,omitempty"`
	// HasProb marks blocks whose conditional branch appeared in the
	// hot-spot record; Prob is its measured taken probability.
	HasProb bool    `json:"has_prob,omitempty"`
	Prob    float64 `json:"prob,omitempty"`
}

// RegionArc is one CFG arc's temperature record.
type RegionArc struct {
	From   int         `json:"from"`
	Taken  bool        `json:"taken,omitempty"`
	Temp   region.Temp `json:"temp"`
	Weight uint64      `json:"weight,omitempty"`
}

// RegionRecord is one identified region in serializable form.
type RegionRecord struct {
	PhaseID          int           `json:"phase"`
	ProfiledBranches int           `json:"profiled_branches"`
	UnmappedBranches int           `json:"unmapped_branches,omitempty"`
	InferredHot      int           `json:"inferred_hot,omitempty"`
	InferredCold     int           `json:"inferred_cold,omitempty"`
	GrownBlocks      int           `json:"grown_blocks,omitempty"`
	Blocks           []RegionBlock `json:"blocks"`
	Arcs             []RegionArc   `json:"arcs"`
}

// RegionArtifact is stage 2's output: the identified hot regions for the
// selected phases, in selection (detection-weight) order.
type RegionArtifact struct {
	Schema string `json:"schema"`
	// ProgramHash is the image hash the regions' block IDs refer to.
	ProgramHash uint64 `json:"program_hash,string"`
	// ProfileHash is the content hash of the ProfileArtifact this was
	// derived from.
	ProfileHash uint64 `json:"profile_hash,string"`
	// TotalPhases is the profile's phase count before selection;
	// SkippedPhases counts phases whose identification failed.
	TotalPhases   int            `json:"total_phases"`
	SkippedPhases int            `json:"skipped_phases"`
	Records       []RegionRecord `json:"regions"`

	// live regions, valid for programs whose image hash matches
	// ProgramHash; boundTo is the program they point into.
	regions []*region.Region
	boundTo *prog.Program
	// cached content hash (artifacts are immutable once staged).
	contentHash uint64
	hashed      bool
}

// regionRecord lowers a live region to its serializable form.
func regionRecord(r *region.Region) RegionRecord {
	rec := RegionRecord{
		PhaseID:          r.PhaseID,
		ProfiledBranches: r.ProfiledBranches,
		UnmappedBranches: r.UnmappedBranches,
		InferredHot:      r.InferredHot,
		InferredCold:     r.InferredCold,
		GrownBlocks:      r.GrownBlocks,
	}
	for b, t := range r.BlockTemp {
		rb := RegionBlock{Block: b.ID, Temp: t, Weight: r.BlockWeight[b]}
		if p, ok := r.TakenProb[b]; ok {
			rb.HasProb, rb.Prob = true, p
		}
		rec.Blocks = append(rec.Blocks, rb)
	}
	sort.Slice(rec.Blocks, func(i, j int) bool { return rec.Blocks[i].Block < rec.Blocks[j].Block })
	for k, t := range r.ArcTemp {
		rec.Arcs = append(rec.Arcs, RegionArc{From: k.From.ID, Taken: k.Taken, Temp: t, Weight: r.ArcWeight[k]})
	}
	sort.Slice(rec.Arcs, func(i, j int) bool {
		if rec.Arcs[i].From != rec.Arcs[j].From {
			return rec.Arcs[i].From < rec.Arcs[j].From
		}
		return !rec.Arcs[i].Taken && rec.Arcs[j].Taken
	})
	return rec
}

// sync materializes the serializable Records from the live regions. The
// lowering is deferred off the pipeline hot path: Run never pays for it,
// only encoding, hashing or rebinding to a foreign program does.
func (ra *RegionArtifact) sync() {
	if len(ra.Records) == 0 && len(ra.regions) > 0 {
		ra.Records = make([]RegionRecord, 0, len(ra.regions))
		for _, r := range ra.regions {
			ra.Records = append(ra.Records, regionRecord(r))
		}
	}
}

// bind reconstructs the live regions against p, which must linearize to
// the artifact's ProgramHash (the caller checks).
func (ra *RegionArtifact) bind(p *prog.Program) ([]*region.Region, error) {
	if ra.boundTo == p && ra.regions != nil {
		return ra.regions, nil
	}
	ra.sync()
	blocks := make(map[int]*prog.Block, p.NumBlocks())
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			blocks[b.ID] = b
		}
	}
	regions := make([]*region.Region, 0, len(ra.Records))
	for i := range ra.Records {
		rec := &ra.Records[i]
		r := &region.Region{
			PhaseID:          rec.PhaseID,
			ProfiledBranches: rec.ProfiledBranches,
			UnmappedBranches: rec.UnmappedBranches,
			InferredHot:      rec.InferredHot,
			InferredCold:     rec.InferredCold,
			GrownBlocks:      rec.GrownBlocks,
			BlockTemp:        make(map[*prog.Block]region.Temp, len(rec.Blocks)),
			BlockWeight:      make(map[*prog.Block]uint64, len(rec.Blocks)),
			TakenProb:        make(map[*prog.Block]float64),
			ArcTemp:          make(map[region.ArcKey]region.Temp, len(rec.Arcs)),
			ArcWeight:        make(map[region.ArcKey]uint64, len(rec.Arcs)),
		}
		for _, rb := range rec.Blocks {
			b := blocks[rb.Block]
			if b == nil {
				return nil, fmt.Errorf("core: region artifact: phase %d references unknown block %d", rec.PhaseID, rb.Block)
			}
			r.BlockTemp[b] = rb.Temp
			r.BlockWeight[b] = rb.Weight
			if rb.HasProb {
				r.TakenProb[b] = rb.Prob
			}
		}
		for _, arc := range rec.Arcs {
			b := blocks[arc.From]
			if b == nil {
				return nil, fmt.Errorf("core: region artifact: phase %d references unknown block %d", rec.PhaseID, arc.From)
			}
			k := region.ArcKey{From: b, Taken: arc.Taken}
			r.ArcTemp[k] = arc.Temp
			r.ArcWeight[k] = arc.Weight
		}
		regions = append(regions, r)
	}
	ra.regions, ra.boundTo = regions, p
	return regions, nil
}

// NumRegions returns how many regions the artifact carries, without
// materializing either representation.
func (ra *RegionArtifact) NumRegions() int {
	if len(ra.regions) > 0 {
		return len(ra.regions)
	}
	return len(ra.Records)
}

// Regions materializes the artifact's live regions against p, whose
// linearized image must hash to the artifact's ProgramHash; pass the
// image so the staleness check runs. A RegionArtifact produced in-process
// by RegionStage returns its original regions with no reconstruction.
func (ra *RegionArtifact) Regions(p *prog.Program, img *prog.Image) ([]*region.Region, error) {
	if h := ImageHash(img); h != ra.ProgramHash {
		return nil, fmt.Errorf("core: region artifact for image %016x applied to image %016x: %w",
			ra.ProgramHash, h, ErrStaleArtifact)
	}
	return ra.bind(p)
}

// Hash returns the artifact's content hash, computed once and cached
// (artifacts are immutable after their stage returns).
func (ra *RegionArtifact) Hash() (uint64, error) {
	if ra.hashed {
		return ra.contentHash, nil
	}
	ra.sync()
	type plain RegionArtifact
	h, err := jsonHash((*plain)(ra))
	if err != nil {
		return 0, err
	}
	ra.contentHash, ra.hashed = h, true
	return h, nil
}

// hash is Hash with errors flattened to zero, for provenance stamping.
func (ra *RegionArtifact) hash() uint64 {
	h, _ := ra.Hash()
	return h
}

// EncodeJSON writes the artifact's canonical JSON form.
func (ra *RegionArtifact) EncodeJSON(w io.Writer) error {
	ra.sync()
	type plain RegionArtifact
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode((*plain)(ra))
}

// DecodeRegionArtifact reads an artifact previously written by EncodeJSON.
func DecodeRegionArtifact(r io.Reader) (*RegionArtifact, error) {
	var ra RegionArtifact
	if err := json.NewDecoder(r).Decode(&ra); err != nil {
		return nil, fmt.Errorf("core: decode region artifact: %w", err)
	}
	if ra.Schema != RegionArtifactSchema {
		return nil, fmt.Errorf("core: decode region artifact: schema %q, want %q", ra.Schema, RegionArtifactSchema)
	}
	return &ra, nil
}

// PackageInfo summarizes one extracted package inside a PackageSet.
type PackageInfo struct {
	Name         string `json:"name"`
	PhaseID      int    `json:"phase"`
	Root         string `json:"root"`
	Blocks       int    `json:"blocks"`
	Branches     int    `json:"branches"`
	Entries      int    `json:"entries"`
	Exits        int    `json:"exits"`
	Linked       int    `json:"linked"`
	InlinedCalls int    `json:"inlined_calls,omitempty"`
}

// PackStats carries the §5 static measurements of a PackageSet.
type PackStats struct {
	Packages      int `json:"packages"`
	Groups        int `json:"groups"`
	Links         int `json:"links"`
	Monitors      int `json:"monitors,omitempty"`
	LaunchPoints  int `json:"launch_points"`
	OrigInsts     int `json:"orig_insts"`
	AddedInsts    int `json:"added_insts"`
	SelectedInsts int `json:"selected_insts"`
}

// PackageSet is stage 3's output: the packed program with its installed,
// optimized packages, in a form that can be versioned, served and
// re-executed. The packed program itself travels as VPIR assembly, whose
// round trip reassembles to a byte-identical code image (DESIGN.md §6) —
// dummy-consumer exit annotations are shed in transit, so a reassembled
// program is executable and evaluable but not re-optimizable.
type PackageSet struct {
	Schema  string `json:"schema"`
	Program string `json:"program,omitempty"`
	// ProgramHash is the pre-packing image hash (the provenance chain back
	// through RegionHash to the profile); PackedHash the post-packing one.
	ProgramHash   uint64        `json:"program_hash,string"`
	RegionHash    uint64        `json:"region_hash,string"`
	PackedHash    uint64        `json:"packed_hash,string"`
	Phases        int           `json:"phases"`
	SkippedPhases int           `json:"skipped_phases,omitempty"`
	Stats         PackStats     `json:"stats"`
	Packages      []PackageInfo `json:"packages"`
	PackedAsm     string        `json:"packed_asm"`

	// Equiv holds the per-package translation-validation certificates
	// when the producing run had the -equiv gate on: the served set
	// carries its own proof metadata.
	Equiv []*equiv.Certificate `json:"equiv,omitempty"`

	// live results, set when the stage ran in-process.
	res    *pack.Result
	packed *prog.Program
	// reused counts the certificates in Equiv that PackageStageReusing
	// took from its memo; it is not encoded.
	reused int
}

// Reused returns how many of the set's certificates the producing stage
// reused from a proof memo instead of proving (0 for a decoded set).
func (s *PackageSet) Reused() int { return s.reused }

// newPackageSet lowers an installation result over the packed program.
// PackedAsm and PackedHash are deferred to encode time (sync), so the
// pipeline hot path never disassembles or re-linearizes.
func newPackageSet(packed *prog.Program, res *pack.Result, regionHash, programHash uint64) *PackageSet {
	ps := &PackageSet{
		Schema:      PackageSetSchema,
		ProgramHash: programHash,
		RegionHash:  regionHash,
		Stats: PackStats{
			Packages:      len(res.Packages),
			Groups:        len(res.Groups),
			Links:         res.Links,
			Monitors:      res.Monitors,
			LaunchPoints:  res.LaunchPoints,
			OrigInsts:     res.OrigInsts,
			AddedInsts:    res.AddedInsts,
			SelectedInsts: res.SelectedInsts,
		},
		res:    res,
		packed: packed,
	}
	phases := make(map[int]bool)
	for _, pk := range res.Packages {
		phases[pk.PhaseID] = true
		linked := 0
		for _, e := range pk.Exits {
			if e.Linked != nil {
				linked++
			}
		}
		ps.Packages = append(ps.Packages, PackageInfo{
			Name:         pk.Fn.Name,
			PhaseID:      pk.PhaseID,
			Root:         pk.Root.Name,
			Blocks:       len(pk.Fn.Blocks),
			Branches:     pk.Branches,
			Entries:      len(pk.Entries),
			Exits:        len(pk.Exits),
			Linked:       linked,
			InlinedCalls: pk.InlinedCalls,
		})
	}
	ps.Phases = len(phases)
	return ps
}

// Result returns the live installation result when the set was produced
// in-process, or nil for a decoded set (the static Stats remain).
func (ps *PackageSet) Result() *pack.Result { return ps.res }

// Materialize returns the packed program: the in-process original when
// available, otherwise a program reassembled from PackedAsm whose
// linearized image is byte-identical to the original packed image.
func (ps *PackageSet) Materialize() (*prog.Program, error) {
	if ps.packed != nil {
		return ps.packed, nil
	}
	p, err := asm.Assemble(ps.PackedAsm)
	if err != nil {
		return nil, fmt.Errorf("core: package set: reassemble packed program: %w", err)
	}
	return p, nil
}

// CodeGrowth returns AddedInsts/OrigInsts (Table 3's metric), computable
// on decoded sets.
func (ps *PackageSet) CodeGrowth() float64 {
	if ps.Stats.OrigInsts == 0 {
		return 0
	}
	return float64(ps.Stats.AddedInsts) / float64(ps.Stats.OrigInsts)
}

// SelectedFraction returns SelectedInsts/OrigInsts.
func (ps *PackageSet) SelectedFraction() float64 {
	if ps.Stats.OrigInsts == 0 {
		return 0
	}
	return float64(ps.Stats.SelectedInsts) / float64(ps.Stats.OrigInsts)
}

// Replication returns AddedInsts/SelectedInsts (the paper's ~2.6 factor).
func (ps *PackageSet) Replication() float64 {
	if ps.Stats.SelectedInsts == 0 {
		return 0
	}
	return float64(ps.Stats.AddedInsts) / float64(ps.Stats.SelectedInsts)
}

// sync materializes the serialized program text and packed-image hash
// from the live program.
func (ps *PackageSet) sync() error {
	if ps.packed == nil {
		return nil
	}
	if ps.PackedAsm == "" {
		ps.PackedAsm = asm.Disassemble(ps.packed)
	}
	if ps.PackedHash == 0 {
		img, err := ps.packed.Linearize()
		if err != nil {
			return fmt.Errorf("core: package set: linearize packed program: %w", err)
		}
		ps.PackedHash = ImageHash(img)
	}
	return nil
}

// Hash returns the set's content hash.
func (ps *PackageSet) Hash() (uint64, error) {
	if err := ps.sync(); err != nil {
		return 0, err
	}
	type plain PackageSet
	return jsonHash((*plain)(ps))
}

// EncodeJSON writes the set's canonical JSON form.
func (ps *PackageSet) EncodeJSON(w io.Writer) error {
	if err := ps.sync(); err != nil {
		return err
	}
	type plain PackageSet
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode((*plain)(ps))
}

// DecodePackageSet reads a set previously written by EncodeJSON.
func DecodePackageSet(r io.Reader) (*PackageSet, error) {
	var ps PackageSet
	if err := json.NewDecoder(r).Decode(&ps); err != nil {
		return nil, fmt.Errorf("core: decode package set: %w", err)
	}
	if ps.Schema != PackageSetSchema {
		return nil, fmt.Errorf("core: decode package set: schema %q, want %q", ps.Schema, PackageSetSchema)
	}
	return &ps, nil
}
