package catalog

import (
	"encoding/binary"
	"math"
	"slices"
)

// AppendIdentity appends an encoding of every field of every structure of
// the configuration to b: indexes and views in listing order, then table
// partitionings by table name. Two configurations with equal identities are
// equal field for field, so a computation over either — a what-if
// optimization in particular — gives the same answer. Key names the set of
// structures instead; the identity also keeps what Key drops and the
// optimizer still reads: the listing order (the enumeration order of plan
// alternatives), the included-column order, and a view's name and row
// estimate. A nil configuration encodes as an empty one.
func (c *Configuration) AppendIdentity(b []byte) []byte {
	if c == nil {
		c = &Configuration{}
	}
	b = binary.AppendUvarint(b, uint64(len(c.Indexes)))
	for _, ix := range c.Indexes {
		b = appendString(b, ix.Table)
		b = appendStrings(b, ix.KeyColumns)
		b = appendStrings(b, ix.IncludeCols)
		b = appendBool(b, ix.Clustered)
		b = ix.Partitioning.appendIdentity(b)
		b = appendBool(b, ix.FromConstraint)
	}
	b = binary.AppendUvarint(b, uint64(len(c.Views)))
	for _, v := range c.Views {
		b = appendString(b, v.Name)
		b = appendStrings(b, v.Tables)
		b = binary.AppendUvarint(b, uint64(len(v.JoinPreds)))
		for _, j := range v.JoinPreds {
			b = j.Left.appendIdentity(b)
			b = j.Right.appendIdentity(b)
		}
		b = appendColRefs(b, v.OutputColumns)
		b = appendColRefs(b, v.GroupBy)
		b = binary.AppendUvarint(b, uint64(len(v.Aggs)))
		for _, a := range v.Aggs {
			b = appendString(b, a.Func)
			b = a.Col.appendIdentity(b)
		}
		b = binary.AppendVarint(b, v.Rows)
		b = v.Partitioning.appendIdentity(b)
	}
	// The partitioned tables in sorted order (PartitionedTables' order),
	// gathered in a stack buffer: a plan-cache hit renders this identity
	// and allocates nothing.
	var buf [16]string
	tables := buf[:0]
	for t := range c.TableParts {
		tables = append(tables, t)
	}
	slices.Sort(tables)
	b = binary.AppendUvarint(b, uint64(len(tables)))
	for _, t := range tables {
		b = appendString(b, t)
		b = c.TableParts[t].appendIdentity(b)
	}
	return b
}

// appendIdentity encodes the scheme, nil (unpartitioned) included.
func (p *PartitionScheme) appendIdentity(b []byte) []byte {
	if p == nil {
		return appendBool(b, false)
	}
	b = appendBool(b, true)
	b = appendString(b, p.Column)
	b = binary.AppendUvarint(b, uint64(len(p.Boundaries)))
	for _, v := range p.Boundaries {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func (c ColRef) appendIdentity(b []byte) []byte {
	return appendString(appendString(b, c.Table), c.Column)
}

func appendColRefs(b []byte, cols []ColRef) []byte {
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = c.appendIdentity(b)
	}
	return b
}

// appendString writes s length-prefixed, so no two field sequences share an
// encoding.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
