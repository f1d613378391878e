package hashmachine

import (
	"math"
	"sort"

	"sdss/internal/catalog"
	"sdss/internal/htm"
	"sdss/internal/skygen"
	"sdss/internal/sphere"
)

// unionFind is a classic disjoint-set over object indices.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// Group is one friends-of-friends cluster.
type Group struct {
	Members []catalog.ObjID
	Center  sphere.Vec3 // normalized centroid
	Radius  float64     // max member distance from center, radians
}

// FriendsOfFriends finds groups by percolation: objects closer than the
// linking length (cfg.PairRadius) are "friends", and groups are the
// transitive closure — the standard cluster-finding algorithm the hash
// machine's "clustering by spectral type or by redshift-distance vector"
// workloads rest on. Groups smaller than minMembers are dropped.
func FriendsOfFriends(tags []catalog.Tag, cfg Config, minMembers int) ([]Group, error) {
	buckets, err := Hash(tags, cfg, nil)
	if err != nil {
		return nil, err
	}
	pairs, err := Pairs(buckets, cfg, nil)
	if err != nil {
		return nil, err
	}
	idx := make(map[catalog.ObjID]int, len(tags))
	for i := range tags {
		idx[tags[i].ObjID] = i
	}
	uf := newUnionFind(len(tags))
	for _, p := range pairs {
		uf.union(idx[p.A.ObjID], idx[p.B.ObjID])
	}
	members := make(map[int][]int)
	for i := range tags {
		root := uf.find(i)
		members[root] = append(members[root], i)
	}
	var groups []Group
	for _, m := range members {
		if len(m) < minMembers {
			continue
		}
		g := Group{Members: make([]catalog.ObjID, 0, len(m))}
		var sum sphere.Vec3
		for _, i := range m {
			g.Members = append(g.Members, tags[i].ObjID)
			sum = sum.Add(tags[i].Pos())
		}
		g.Center = sum.Normalize()
		for _, i := range m {
			if d := sphere.Dist(g.Center, tags[i].Pos()); d > g.Radius {
				g.Radius = d
			}
		}
		sort.Slice(g.Members, func(a, b int) bool { return g.Members[a] < g.Members[b] })
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return len(groups[i].Members) > len(groups[j].Members) })
	return groups, nil
}

// Match is one cross-identification: an external source matched to its
// nearest catalog object within the match radius.
type Match struct {
	RadioID uint64
	ObjID   catalog.ObjID
	Dist    float64 // radians
}

// CrossMatch identifies external (radio) sources with catalog objects:
// for each source, the nearest tag within radius. The tags are hashed with
// margin replication so the per-source search never leaves one bucket —
// the hash-join shape again, with the external catalog as probe side.
func CrossMatch(tags []catalog.Tag, radio []skygen.RadioSource, radius float64, cfg Config) ([]Match, error) {
	cfg.PairRadius = radius
	buckets, err := Hash(tags, cfg, nil)
	if err != nil {
		return nil, err
	}
	depth := cfg.bucketDepth()
	cosMax := math.Cos(radius)
	var out []Match
	for i := range radio {
		r := &radio[i]
		pos := r.Pos()
		home, err := htm.Lookup(pos, depth)
		if err != nil {
			continue
		}
		best := Match{RadioID: r.ID, Dist: math.Inf(1)}
		for _, e := range buckets[home] {
			c := sphere.CosDist(pos, sphere.Vec3{X: e.Tag.X, Y: e.Tag.Y, Z: e.Tag.Z})
			if c < cosMax {
				continue
			}
			if d := math.Acos(math.Min(1, c)); d < best.Dist {
				best.Dist = d
				best.ObjID = e.Tag.ObjID
			}
		}
		if !math.IsInf(best.Dist, 1) {
			out = append(out, best)
		}
	}
	return out, nil
}
