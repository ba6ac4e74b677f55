package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"mood/internal/object"
)

// shape is one statement template of the paper-mix: the point lookup, the
// paper's Examples 8.2 and 8.1 (path predicates over Vehicle), an
// aggregate over a one-hop path, and a Company scan with a path predicate.
type shape int

const (
	shapePoint shape = iota
	shapeEx82
	shapeEx81
	shapeGroup
	shapeScan
	numShapes
)

var shapeNames = [numShapes]string{"point", "ex82", "ex81", "group", "scan"}

// shapeShares is each shape's share of the mix, in percent.
var shapeShares = [numShapes]int{40, 20, 20, 10, 10}

const selectVehicle = "SELECT v.id, v.drivetrain.transmission, v.manufacturer.name FROM Vehicle v WHERE "

// query is one drawn paper-mix statement with the parameters the oracle
// answers it from.
type query struct {
	shape shape
	text  string
	s     string // string parameter (manufacturer name, location)
	a, b  int    // integer parameters
}

// drawQuery draws the next paper-mix statement. Every constant comes from
// the oracle's domains, so the oracle answers each drawn statement.
func drawQuery(rng *rand.Rand, d *domains) query {
	p := rng.Intn(100)
	sh := shape(0)
	for ; p >= shapeShares[sh]; sh++ {
		p -= shapeShares[sh]
	}
	q := query{shape: sh}
	switch sh {
	case shapePoint:
		q.a = d.ids[rng.Intn(len(d.ids))]
		q.text = fmt.Sprintf(selectVehicle+"v.id = %d", q.a)
	case shapeEx82:
		q.a = d.cylinders[rng.Intn(len(d.cylinders))]
		q.text = fmt.Sprintf(selectVehicle+"v.drivetrain.engine.cylinders = %d", q.a)
	case shapeEx81:
		q.s = d.makers[rng.Intn(len(d.makers))]
		q.a = d.cylinders[rng.Intn(len(d.cylinders))]
		q.text = fmt.Sprintf(selectVehicle+"v.manufacturer.name = '%s' AND v.drivetrain.engine.cylinders = %d", q.s, q.a)
	case shapeGroup:
		q.a = rng.Intn(d.maxCylinders + 1)
		q.text = fmt.Sprintf("SELECT d.transmission, COUNT(*) AS n FROM VehicleDriveTrain d WHERE d.engine.cylinders > %d GROUP BY d.transmission", q.a)
	case shapeScan:
		q.s = d.locations[rng.Intn(len(d.locations))]
		q.a = d.minAge - 1 + rng.Intn(d.maxAge-d.minAge+2)
		q.text = fmt.Sprintf("SELECT c.name FROM Company c WHERE c.location = '%s' AND c.president.age > %d", q.s, q.a)
	}
	return q
}

// answer is a result's row count and order-insensitive fingerprint: the
// wrapping sum of its rows' hashes.
type answer struct {
	rows int
	fp   uint64
}

func (a *answer) add(row ...object.Value) {
	a.rows++
	a.fp += rowHash(row)
}

func answerOf(rows [][]object.Value) answer {
	var a answer
	for _, r := range rows {
		a.add(r...)
	}
	return a
}

// rowHash hashes a row's values in their printed form, so a COUNT returned
// as a long integer and the oracle's integer hash alike.
func rowHash(row []object.Value) uint64 {
	var buf [128]byte
	b := buf[:0]
	for _, v := range row {
		switch v.Kind {
		case object.KindInteger, object.KindLongInteger:
			b = strconv.AppendInt(b, v.Int, 10)
		case object.KindString:
			b = strconv.AppendQuote(b, v.Str)
		default:
			b = append(b, v.String()...)
		}
		b = append(b, 0x1f)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
