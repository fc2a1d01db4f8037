//! # xia-index
//!
//! XML pattern indexes — the reproduction of DB2 pureXML's partial XML
//! indexes (`CREATE INDEX ... GENERATE KEY USING XMLPATTERN '...' AS SQL
//! VARCHAR/DOUBLE`) that the paper's advisor recommends.
//!
//! An index is defined by a [`LinearPath`](xia_xpath::LinearPath) pattern
//! over `{/, //, *, @}` plus a key [`DataType`]. It contains one entry per
//! node reachable by the pattern, keyed by the node's (typed) value.
//! Indexes come in two flavours:
//!
//! * **Physical** ([`PhysicalIndex`]) — actually built over documents and
//!   probed by the executor.
//! * **Virtual** ([`IndexDefinition`] with `is_virtual`) — catalog metadata
//!   only; the optimizer plants these to cost hypothetical configurations
//!   and to enumerate candidates via the `//*` virtual index, exactly as
//!   the paper describes.
//!
//! The [`containment`] module implements *index matching*: deciding whether
//! an index on pattern `P` can answer a query path `Q` (every node `Q`
//! selects is indexed), i.e. linear-XPath containment `L(Q) ⊆ L(P)`.

pub mod containment;
pub mod cow_map;
pub mod matching;
pub mod pattern;
pub mod physical;

pub use containment::{contains, equivalent, strictly_contains};
pub use cow_map::CowMap;
pub use matching::{match_index, IndexMatch, PathPredicate, ValuePredicate};
pub use pattern::{DataType, IndexDefinition, IndexId};
pub use physical::{IndexKey, PhysicalIndex, Posting};
