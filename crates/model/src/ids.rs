//! Strongly typed identifiers.
//!
//! The paper's model names each entity by a unique identifier (`id_t`,
//! `id_r`, `id_w`). Newtypes prevent the classic database bug of joining a
//! worker id against a task id. All ids are dense `u32` indices so they can
//! double as vector offsets in hot loops.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw index value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// The raw index widened to `usize` for slice indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

define_id!(
    /// Unique worker identifier (`id_w` in the paper).
    WorkerId,
    "w"
);
define_id!(
    /// Unique task identifier (`id_t` in the paper).
    TaskId,
    "t"
);
define_id!(
    /// Unique requester identifier (`id_r` in the paper).
    RequesterId,
    "r"
);
define_id!(
    /// Unique skill-keyword identifier (index into the skill universe).
    SkillId,
    "s"
);
define_id!(
    /// A campaign groups the tasks a requester posts together (e.g. one
    /// labelling job published as many HITs).
    CampaignId,
    "c"
);
define_id!(
    /// Unique submission identifier (one worker's contribution to one task).
    SubmissionId,
    "sub"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(WorkerId::new(7).to_string(), "w7");
        assert_eq!(TaskId::new(0).to_string(), "t0");
        assert_eq!(RequesterId::new(3).to_string(), "r3");
        assert_eq!(SubmissionId::new(12).to_string(), "sub12");
    }

    #[test]
    fn roundtrip_raw() {
        let id = TaskId::from(42u32);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42usize);
        assert_eq!(u32::from(id), 42);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = HashSet::new();
        set.insert(WorkerId::new(1));
        set.insert(WorkerId::new(1));
        set.insert(WorkerId::new(2));
        assert_eq!(set.len(), 2);
        assert!(WorkerId::new(1) < WorkerId::new(2));
    }
}
