package osm

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"

	"citymesh/internal/geo"
)

// xmlTag mirrors <tag k="..." v="..."/>.
type xmlTag struct {
	K string `xml:"k,attr"`
	V string `xml:"v,attr"`
}

// xmlNode mirrors <node id lat lon>...</node>.
type xmlNode struct {
	ID   int64    `xml:"id,attr"`
	Lat  float64  `xml:"lat,attr"`
	Lon  float64  `xml:"lon,attr"`
	Tags []xmlTag `xml:"tag"`
}

// xmlNd mirrors <nd ref="..."/>.
type xmlNd struct {
	Ref int64 `xml:"ref,attr"`
}

// xmlWay mirrors <way id>...</way>.
type xmlWay struct {
	ID   int64    `xml:"id,attr"`
	Nds  []xmlNd  `xml:"nd"`
	Tags []xmlTag `xml:"tag"`
}

// xmlMember mirrors <member type ref role/>.
type xmlMember struct {
	Type string `xml:"type,attr"`
	Ref  int64  `xml:"ref,attr"`
	Role string `xml:"role,attr"`
}

// xmlRelation mirrors <relation id>...</relation>.
type xmlRelation struct {
	ID      int64       `xml:"id,attr"`
	Members []xmlMember `xml:"member"`
	Tags    []xmlTag    `xml:"tag"`
}

func tagsFromXML(xs []xmlTag) Tags {
	if len(xs) == 0 {
		return nil
	}
	t := make(Tags, len(xs))
	for _, x := range xs {
		t[x.K] = x.V
	}
	return t
}

// Parse reads an OSM XML document from r. It streams element-by-element so
// city-scale files do not require the whole DOM in memory at once.
func Parse(r io.Reader) (*Document, error) {
	doc := NewDocument()
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("osm: parse: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch start.Name.Local {
		case "bounds":
			for _, a := range start.Attr {
				v, err := strconv.ParseFloat(a.Value, 64)
				if err != nil {
					return nil, fmt.Errorf("osm: bounds attr %s: %w", a.Name.Local, err)
				}
				switch a.Name.Local {
				case "minlat":
					doc.MinLat = v
				case "minlon":
					doc.MinLon = v
				case "maxlat":
					doc.MaxLat = v
				case "maxlon":
					doc.MaxLon = v
				}
			}
			doc.HasBounds = true
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		case "node":
			var xn xmlNode
			if err := dec.DecodeElement(&xn, &start); err != nil {
				return nil, fmt.Errorf("osm: node: %w", err)
			}
			doc.AddNode(&Node{
				ID:   ID(xn.ID),
				Pos:  geo.LatLon{Lat: xn.Lat, Lon: xn.Lon},
				Tags: tagsFromXML(xn.Tags),
			})
		case "way":
			var xw xmlWay
			if err := dec.DecodeElement(&xw, &start); err != nil {
				return nil, fmt.Errorf("osm: way: %w", err)
			}
			w := &Way{ID: ID(xw.ID), Tags: tagsFromXML(xw.Tags)}
			w.Refs = make([]ID, len(xw.Nds))
			for i, nd := range xw.Nds {
				w.Refs[i] = ID(nd.Ref)
			}
			doc.AddWay(w)
		case "relation":
			var xr xmlRelation
			if err := dec.DecodeElement(&xr, &start); err != nil {
				return nil, fmt.Errorf("osm: relation: %w", err)
			}
			rel := &Relation{ID: ID(xr.ID), Tags: tagsFromXML(xr.Tags)}
			rel.Members = make([]Member, len(xr.Members))
			for i, m := range xr.Members {
				rel.Members[i] = Member{Type: m.Type, Ref: ID(m.Ref), Role: m.Role}
			}
			doc.AddRelation(rel)
		}
	}
	return doc, nil
}

// Write emits doc as OSM XML. Elements are written in ascending ID order so
// output is deterministic.
func Write(w io.Writer, doc *Document) error {
	bw := &errWriter{w: w}
	bw.printf("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")
	bw.printf("<osm version=\"0.6\" generator=\"citymesh\">\n")
	if doc.HasBounds {
		bw.printf("  <bounds minlat=\"%.7f\" minlon=\"%.7f\" maxlat=\"%.7f\" maxlon=\"%.7f\"/>\n",
			doc.MinLat, doc.MinLon, doc.MaxLat, doc.MaxLon)
	}

	nodeIDs := make([]ID, 0, len(doc.Nodes))
	for id := range doc.Nodes {
		nodeIDs = append(nodeIDs, id)
	}
	sortIDs(nodeIDs)
	for _, id := range nodeIDs {
		n := doc.Nodes[id]
		if len(n.Tags) == 0 {
			bw.printf("  <node id=\"%d\" lat=\"%.7f\" lon=\"%.7f\"/>\n", n.ID, n.Pos.Lat, n.Pos.Lon)
			continue
		}
		bw.printf("  <node id=\"%d\" lat=\"%.7f\" lon=\"%.7f\">\n", n.ID, n.Pos.Lat, n.Pos.Lon)
		writeTags(bw, n.Tags)
		bw.printf("  </node>\n")
	}

	for _, id := range doc.SortedWayIDs() {
		way := doc.Ways[id]
		bw.printf("  <way id=\"%d\">\n", way.ID)
		for _, ref := range way.Refs {
			bw.printf("    <nd ref=\"%d\"/>\n", ref)
		}
		writeTags(bw, way.Tags)
		bw.printf("  </way>\n")
	}

	relIDs := make([]ID, 0, len(doc.Relations))
	for id := range doc.Relations {
		relIDs = append(relIDs, id)
	}
	sortIDs(relIDs)
	for _, id := range relIDs {
		rel := doc.Relations[id]
		bw.printf("  <relation id=\"%d\">\n", rel.ID)
		for _, m := range rel.Members {
			bw.printf("    <member type=\"%s\" ref=\"%d\" role=\"%s\"/>\n",
				xmlEscape(m.Type), m.Ref, xmlEscape(m.Role))
		}
		writeTags(bw, rel.Tags)
		bw.printf("  </relation>\n")
	}

	bw.printf("</osm>\n")
	return bw.err
}

func writeTags(bw *errWriter, t Tags) {
	for _, k := range t.Keys() {
		bw.printf("    <tag k=\"%s\" v=\"%s\"/>\n", xmlEscape(k), xmlEscape(t[k]))
	}
}

func xmlEscape(s string) string {
	var buf []byte
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			buf = appendStart(buf, s, i)
			buf = append(buf, "&amp;"...)
		case '<':
			buf = appendStart(buf, s, i)
			buf = append(buf, "&lt;"...)
		case '>':
			buf = appendStart(buf, s, i)
			buf = append(buf, "&gt;"...)
		case '"':
			buf = appendStart(buf, s, i)
			buf = append(buf, "&quot;"...)
		default:
			if buf != nil {
				buf = append(buf, s[i])
			}
		}
	}
	if buf == nil {
		return s
	}
	return string(buf)
}

// appendStart lazily copies the unescaped prefix of s on first escape.
func appendStart(buf []byte, s string, i int) []byte {
	if buf == nil {
		buf = make([]byte, 0, len(s)+8)
		buf = append(buf, s[:i]...)
	}
	return buf
}

func sortIDs(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// errWriter folds error handling out of the write path.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
