//! Update requests and pending-update lists (paper §3.2).
//!
//! An *update request* is "a tuple that contains the operation name and its
//! parameters"; its application is a partial function from stores to stores
//! (the precondition checks live in `xqdm::Store`). An *update list* Δ is an
//! ordered list of requests, collected during evaluation inside a `snap`
//! scope and applied when the scope closes.

use xqdm::store::InsertAnchor;
use xqdm::{NodeId, QName, Store, XdmResult};

/// One update request (the paper's `opname(par1, ..., parn)` tuples).
///
/// `replace` does not appear: the paper's rule decomposes it into an
/// `insert` followed by a `delete`.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateRequest {
    /// `insert(nodeseq, nodepar, nodepos)` — splice `nodes` into `parent`
    /// at `anchor`.
    Insert {
        /// The (already copied, parentless) nodes to insert.
        nodes: Vec<NodeId>,
        /// The insertion parent.
        parent: NodeId,
        /// Position among the parent's children.
        anchor: InsertAnchor,
    },
    /// `insertAttributes(nodeseq, element)` — attach attribute nodes to an
    /// element. Not in the paper's tuple list (its examples only splice
    /// child content), but required for `replace` on attribute targets;
    /// attribute order is insignificant in the XDM, so this request
    /// commutes with other attribute insertions on the same element.
    InsertAttributes {
        /// Parentless attribute nodes to attach.
        nodes: Vec<NodeId>,
        /// The owner element.
        element: NodeId,
    },
    /// `delete(node)` — detach `node` from its parent (paper §3.1: delete
    /// does not erase).
    Delete {
        /// The node to detach.
        node: NodeId,
    },
    /// `rename(node, name)`.
    Rename {
        /// The element or attribute to rename.
        node: NodeId,
        /// The new name.
        name: QName,
    },
    /// `setValue(node, string)` — `replace value of`: overwrite the
    /// string value of a text or attribute node in place (no tree-shape
    /// change).
    SetValue {
        /// The text or attribute node to overwrite.
        node: NodeId,
        /// The new string value.
        value: String,
    },
}

impl UpdateRequest {
    /// Apply this request to the store (a partial function: precondition
    /// failures surface as errors).
    pub fn apply(&self, store: &mut Store) -> XdmResult<()> {
        match self {
            UpdateRequest::Insert {
                nodes,
                parent,
                anchor,
            } => store.apply_insert(nodes, *parent, *anchor),
            UpdateRequest::InsertAttributes { nodes, element } => {
                for &a in nodes {
                    store.attach_attribute(*element, a)?;
                }
                Ok(())
            }
            UpdateRequest::Delete { node } => store.detach(*node),
            UpdateRequest::Rename { node, name } => store.apply_rename(*node, name.clone()),
            UpdateRequest::SetValue { node, value } => {
                // The store setters precondition-check the node kind
                // (text vs attribute) themselves.
                match store.kind(*node)? {
                    xqdm::NodeKind::Attribute { .. } => {
                        store.set_attribute_value(*node, value.clone())
                    }
                    _ => store.set_text(*node, value.clone()),
                }
            }
        }
    }

    /// The operation name, for diagnostics.
    pub fn opname(&self) -> &'static str {
        match self {
            UpdateRequest::Insert { .. } => "insert",
            UpdateRequest::InsertAttributes { .. } => "insert-attributes",
            UpdateRequest::Delete { .. } => "delete",
            UpdateRequest::Rename { .. } => "rename",
            UpdateRequest::SetValue { .. } => "set-value",
        }
    }
}

/// A pending update list Δ: an ordered list of update requests. The order
/// is fully specified by the language semantics (left-to-right evaluation);
/// whether application *honours* that order depends on the snap mode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    requests: Vec<UpdateRequest>,
}

impl Delta {
    /// An empty Δ.
    pub fn new() -> Self {
        Delta::default()
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Append one request (the paper's `(Δ1, op(...))`).
    pub fn push(&mut self, req: UpdateRequest) {
        self.requests.push(req);
    }

    /// Concatenate another Δ onto this one (the paper's `(Δ1, Δ2)`).
    pub fn extend(&mut self, other: Delta) {
        self.requests.extend(other.requests);
    }

    /// The requests, in Δ order.
    pub fn requests(&self) -> &[UpdateRequest] {
        &self.requests
    }

    /// Consume into the request list.
    pub fn into_requests(self) -> Vec<UpdateRequest> {
        self.requests
    }
}

impl FromIterator<UpdateRequest> for Delta {
    fn from_iter<T: IntoIterator<Item = UpdateRequest>>(iter: T) -> Self {
        Delta {
            requests: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqdm::QName;

    #[test]
    fn delta_preserves_order() {
        let mut s = Store::new();
        let a = s.new_element(QName::local("a"));
        let b = s.new_element(QName::local("b"));
        let mut d = Delta::new();
        d.push(UpdateRequest::Rename {
            node: a,
            name: QName::local("x"),
        });
        d.push(UpdateRequest::Rename {
            node: b,
            name: QName::local("y"),
        });
        assert_eq!(d.len(), 2);
        assert_eq!(d.requests()[0].opname(), "rename");
    }

    #[test]
    fn extend_concatenates() {
        let mut s = Store::new();
        let a = s.new_element(QName::local("a"));
        let mut d1 = Delta::new();
        d1.push(UpdateRequest::Delete { node: a });
        let mut d2 = Delta::new();
        d2.push(UpdateRequest::Rename {
            node: a,
            name: QName::local("x"),
        });
        d1.extend(d2);
        assert_eq!(d1.len(), 2);
        assert_eq!(d1.requests()[1].opname(), "rename");
    }

    #[test]
    fn apply_insert_request() {
        let mut s = Store::new();
        let p = s.new_element(QName::local("p"));
        let c = s.new_element(QName::local("c"));
        let req = UpdateRequest::Insert {
            nodes: vec![c],
            parent: p,
            anchor: InsertAnchor::Last,
        };
        req.apply(&mut s).unwrap();
        assert_eq!(s.children(p).unwrap(), &[c]);
    }
}
