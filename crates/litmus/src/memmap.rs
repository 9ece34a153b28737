//! Memory maps: which region each litmus-test location lives in, and its
//! initial value (paper Secs. 2.2 and 4.1).

use std::collections::BTreeMap;
use std::fmt;

use crate::value::Loc;

/// A GPU memory region (paper Sec. 2.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Region {
    /// Global memory: shared by all threads in the grid, cached in L1/L2.
    #[default]
    Global,
    /// Shared memory: one instance per SM, visible only within a CTA.
    Shared,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Global => write!(f, "global"),
            Region::Shared => write!(f, "shared"),
        }
    }
}

/// Region and initial value of one location.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MemInit {
    /// The region the location is allocated in.
    pub region: Region,
    /// The initial value (0 in nearly every paper test).
    pub init: i64,
}

/// The memory map of a litmus test: every location with region and initial
/// value, in canonical (lexicographic) order.
///
/// ```
/// use weakgpu_litmus::{MemMap, Region};
///
/// let mut m = MemMap::new();
/// m.insert_global("x", 0);
/// m.insert_shared("y", 1);
/// assert_eq!(m.region(&"x".into()), Some(Region::Global));
/// assert_eq!(m.init(&"y".into()), Some(1));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct MemMap {
    entries: BTreeMap<Loc, MemInit>,
}

impl MemMap {
    /// An empty memory map.
    pub fn new() -> Self {
        MemMap::default()
    }

    /// Adds or replaces a location.
    pub fn insert(&mut self, loc: impl Into<Loc>, region: Region, init: i64) -> &mut Self {
        self.entries.insert(loc.into(), MemInit { region, init });
        self
    }

    /// Adds a global-memory location with the given initial value.
    pub fn insert_global(&mut self, loc: impl Into<Loc>, init: i64) -> &mut Self {
        self.insert(loc, Region::Global, init)
    }

    /// Adds a shared-memory location with the given initial value.
    pub fn insert_shared(&mut self, loc: impl Into<Loc>, init: i64) -> &mut Self {
        self.insert(loc, Region::Shared, init)
    }

    /// The region of `loc`, if mapped.
    pub fn region(&self, loc: &Loc) -> Option<Region> {
        self.entries.get(loc).map(|e| e.region)
    }

    /// The initial value of `loc`, if mapped.
    pub fn init(&self, loc: &Loc) -> Option<i64> {
        self.entries.get(loc).map(|e| e.init)
    }

    /// `true` if `loc` is mapped.
    pub fn contains(&self, loc: &Loc) -> bool {
        self.entries.contains_key(loc)
    }

    /// Number of mapped locations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no locations are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates locations in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&Loc, &MemInit)> {
        self.entries.iter()
    }

    /// The locations in canonical order.
    pub fn locs(&self) -> impl Iterator<Item = &Loc> {
        self.entries.keys()
    }
}

impl FromIterator<(Loc, MemInit)> for MemMap {
    fn from_iter<I: IntoIterator<Item = (Loc, MemInit)>>(iter: I) -> Self {
        MemMap {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Loc, MemInit)> for MemMap {
    fn extend<I: IntoIterator<Item = (Loc, MemInit)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl fmt::Display for MemMap {
    /// Renders the paper's memory-map line, e.g. `x: shared, y: global`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (loc, init) in &self.entries {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{loc}: {}", init.region)?;
            if init.init != 0 {
                write!(f, "={}", init.init)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut m = MemMap::new();
        m.insert_global("x", 0).insert_shared("y", 5);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&"x".into()));
        assert_eq!(m.region(&"y".into()), Some(Region::Shared));
        assert_eq!(m.init(&"y".into()), Some(5));
        assert_eq!(m.region(&"z".into()), None);
    }

    #[test]
    fn canonical_order_and_display() {
        let mut m = MemMap::new();
        m.insert_shared("y", 0).insert_global("x", 1);
        let locs: Vec<_> = m.locs().map(|l| l.as_str().to_owned()).collect();
        assert_eq!(locs, ["x", "y"]);
        assert_eq!(m.to_string(), "x: global=1, y: shared");
    }

    #[test]
    fn replace_updates_entry() {
        let mut m = MemMap::new();
        m.insert_global("x", 0);
        m.insert_shared("x", 9);
        assert_eq!(m.len(), 1);
        assert_eq!(m.region(&"x".into()), Some(Region::Shared));
        assert_eq!(m.init(&"x".into()), Some(9));
    }

    #[test]
    fn collect_from_iterator() {
        let m: MemMap = [(
            Loc::new("x"),
            MemInit {
                region: Region::Global,
                init: 3,
            },
        )]
        .into_iter()
        .collect();
        assert_eq!(m.init(&"x".into()), Some(3));
    }
}
