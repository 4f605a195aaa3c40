// Package polystore implements RT1.5 (multi-system analytics): analytics
// operators spanning data held in different constituent systems of a
// polystore. The running example is cross-system correlation: entity
// attribute x lives in a relational table system, attribute y in a
// document system, joined on entity key.
//
// Three execution strategies reproduce the paper's contrast ("instead of
// migrating large volumes of data between constituent systems, either (i)
// only approximate results of performing operators on the local data are
// sent, or (ii) the models themselves are migrated"):
//
//   - ShipData: the status quo — every (key, y) pair crosses systems.
//   - ShipPairs: only pairs for keys inside the queried subspace cross.
//   - ShipModel: the document system ships a compact learned model of
//     y over the key space; the table system evaluates it locally and
//     never sees a single y value (data-less, P2 applied across systems).
package polystore

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/learn"
	"repro/internal/metrics"
	"repro/internal/ml"
)

// ErrNoOverlap is returned when the two systems share no keys in the
// queried subspace.
var ErrNoOverlap = errors.New("polystore: no overlapping keys")

// TableSystem holds entity attribute x (column xCol of its table).
type TableSystem struct {
	// Table is the relational store.
	Table *cluster.Table
	// XCol is the attribute column.
	XCol int
}

// DocSystem holds entity attribute y keyed by entity.
type DocSystem struct {
	docs map[uint64]float64
	keys []uint64 // sorted key universe, for model fitting
}

// NewDocSystem builds a document store from (key, y) pairs.
func NewDocSystem(pairs map[uint64]float64) *DocSystem {
	d := &DocSystem{docs: make(map[uint64]float64, len(pairs))}
	for k, v := range pairs {
		d.docs[k] = v
		d.keys = append(d.keys, k)
	}
	sort.Slice(d.keys, func(i, j int) bool { return d.keys[i] < d.keys[j] })
	return d
}

// Len returns the document count.
func (d *DocSystem) Len() int { return len(d.docs) }

// Get returns the y value for key.
func (d *DocSystem) Get(key uint64) (float64, bool) {
	v, ok := d.docs[key]
	return v, ok
}

// TrainModel fits a segmented-regression model y = f(key) with the given
// number of pieces — the migratable model of RT1.5(ii). It works when y
// has structure over the key space (e.g. time-ordered keys).
func (d *DocSystem) TrainModel(segments int) (*ml.SegmentedRegression, error) {
	if len(d.keys) == 0 {
		return nil, ErrNoOverlap
	}
	xs := make([]float64, len(d.keys))
	ys := make([]float64, len(d.keys))
	for i, k := range d.keys {
		xs[i] = float64(k)
		ys[i] = d.docs[k]
	}
	sr := &ml.SegmentedRegression{Segments: segments, MinPoints: 4}
	if err := sr.Fit(xs, ys); err != nil {
		return nil, fmt.Errorf("polystore model: %w", err)
	}
	return sr, nil
}

// Analytics runs cross-system correlation queries.
type Analytics struct {
	cl *cluster.Cluster
	ts *TableSystem
	ds *DocSystem
	// CrossSystemWAN charges inter-system transfers as WAN when true
	// (multi-datacentre polystores); LAN otherwise.
	CrossSystemWAN bool
}

// New builds the analytics coordinator.
func New(cl *cluster.Cluster, ts *TableSystem, ds *DocSystem) *Analytics {
	return &Analytics{cl: cl, ts: ts, ds: ds}
}

func (a *Analytics) transfer(bytes int64) metrics.Cost {
	if a.CrossSystemWAN {
		return a.cl.TransferWAN(bytes)
	}
	return a.cl.TransferLAN(bytes)
}

// tableRows returns the (key, x) pairs whose keys fall in [loKey, hiKey],
// charging the scan.
func (a *Analytics) tableRows(loKey, hiKey uint64) (map[uint64]float64, metrics.Cost, error) {
	out := make(map[uint64]float64)
	var total metrics.Cost
	for p := 0; p < a.ts.Table.Partitions(); p++ {
		rows, c, err := a.ts.Table.ScanPartition(p)
		total = total.Merge(c)
		if err != nil {
			return nil, total, fmt.Errorf("polystore scan: %w", err)
		}
		for _, r := range rows {
			if r.Key >= loKey && r.Key <= hiKey && a.ts.XCol < len(r.Vec) {
				out[r.Key] = r.Vec[a.ts.XCol]
			}
		}
	}
	return out, total, nil
}

// corr computes the Pearson correlation over paired values.
func corr(xs, ys []float64) float64 {
	return learn.Correlation(xs, ys)
}

// ShipData answers corr(x, y) over keys in [loKey, hiKey] by shipping
// the document system's ENTIRE (key, y) set to the table system — the
// migrate-everything baseline.
func (a *Analytics) ShipData(loKey, hiKey uint64) (float64, metrics.Cost, error) {
	xvals, total, err := a.tableRows(loKey, hiKey)
	if err != nil {
		return 0, total, err
	}
	// All docs cross the system boundary.
	total = total.Add(a.transfer(int64(a.ds.Len()) * 16))
	var xs, ys []float64
	for _, k := range a.ds.keys {
		if x, ok := xvals[k]; ok {
			xs = append(xs, x)
			ys = append(ys, a.ds.docs[k])
		}
	}
	if len(xs) == 0 {
		return 0, total, ErrNoOverlap
	}
	return corr(xs, ys), total, nil
}

// ShipPairs ships only the pairs for keys inside the queried range —
// RT1.5(i): only (partial) operator results cross systems.
func (a *Analytics) ShipPairs(loKey, hiKey uint64) (float64, metrics.Cost, error) {
	xvals, total, err := a.tableRows(loKey, hiKey)
	if err != nil {
		return 0, total, err
	}
	// The table system sends the key list (8B/key); the doc system
	// returns matched (key, y) pairs (16B each).
	total = total.Add(a.transfer(int64(len(xvals)) * 8))
	var xs, ys []float64
	for k, x := range xvals {
		if y, ok := a.ds.Get(k); ok {
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	total = total.Add(a.transfer(int64(len(xs)) * 16))
	if len(xs) == 0 {
		return 0, total, ErrNoOverlap
	}
	return corr(xs, ys), total, nil
}

// ShipModel ships a compact learned model of y(key) across the boundary
// instead of any data — RT1.5(ii). The answer is approximate; the cost
// is a few dozen bytes regardless of data size.
func (a *Analytics) ShipModel(loKey, hiKey uint64, segments int) (float64, metrics.Cost, error) {
	xvals, total, err := a.tableRows(loKey, hiKey)
	if err != nil {
		return 0, total, err
	}
	model, err := a.ds.TrainModel(segments)
	if err != nil {
		return 0, total, err
	}
	// Model size: 2 float64 per piece + breakpoints.
	slopes, _ := model.Pieces()
	modelBytes := int64(8 * (2*len(slopes) + len(model.Breakpoints())))
	total = total.Add(a.transfer(modelBytes))
	var xs, ys []float64
	for k, x := range xvals {
		xs = append(xs, x)
		ys = append(ys, model.Predict(float64(k)))
	}
	if len(xs) == 0 {
		return 0, total, ErrNoOverlap
	}
	return corr(xs, ys), total, nil
}

// CompareStrategies runs all three strategies over the same key range
// and returns (value, bytes-moved) per strategy name plus the exact
// reference value — one E12 row.
func (a *Analytics) CompareStrategies(loKey, hiKey uint64, segments int) (map[string]float64, map[string]int64, error) {
	vals := make(map[string]float64, 3)
	bytes := make(map[string]int64, 3)
	v, c, err := a.ShipData(loKey, hiKey)
	if err != nil {
		return nil, nil, err
	}
	vals["ship-data"] = v
	bytes["ship-data"] = c.BytesLAN + c.BytesWAN
	v, c, err = a.ShipPairs(loKey, hiKey)
	if err != nil {
		return nil, nil, err
	}
	vals["ship-pairs"] = v
	bytes["ship-pairs"] = c.BytesLAN + c.BytesWAN
	v, c, err = a.ShipModel(loKey, hiKey, segments)
	if err != nil {
		return nil, nil, err
	}
	vals["ship-model"] = v
	bytes["ship-model"] = c.BytesLAN + c.BytesWAN
	return vals, bytes, nil
}

// AbsError returns |a - b| (helper for E12 reporting).
func AbsError(a, b float64) float64 { return math.Abs(a - b) }
