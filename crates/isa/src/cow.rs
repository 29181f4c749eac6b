use std::sync::{Arc, OnceLock};

/// A block of items shared copy-on-write between a holder and its
/// clones: the unit in which [`Memory`](crate::Memory) shares its page
/// table and the simulator shares its cache arrays.
///
/// A block its holder owns is written in place without touching a
/// reference count. A clone takes a shared copy of the items, made on
/// the first clone after a write and handed out again until the next
/// write; a write to a shared block copies it first. So cloning costs a
/// pointer per block plus a copy of each block written since the last
/// clone, and writing costs nothing extra once the block is owned.
#[derive(Debug)]
pub struct CowBlock<T>(Inner<T>);

#[derive(Debug)]
enum Inner<T> {
    /// Items the holder writes in place, with the shared copy last
    /// handed to a clone, kept until the items are next written.
    Own(Box<[T]>, OnceLock<Arc<[T]>>),
    /// Items shared with a clone or its source.
    Shared(Arc<[T]>),
}

impl<T: Clone> CowBlock<T> {
    /// A block owning `items`.
    #[must_use]
    pub fn new(items: Box<[T]>) -> CowBlock<T> {
        CowBlock(Inner::Own(items, OnceLock::new()))
    }

    /// The items.
    #[inline]
    #[must_use]
    pub fn items(&self) -> &[T] {
        match &self.0 {
            Inner::Own(items, _) => items,
            Inner::Shared(items) => items,
        }
    }

    /// The items, for writing in place: a shared block is copied
    /// first, and an owned one forgets its shared copy.
    #[inline]
    pub fn items_mut(&mut self) -> &mut [T] {
        if !matches!(&self.0, Inner::Own(_, shared) if shared.get().is_none()) {
            self.unshare();
        }
        match &mut self.0 {
            Inner::Own(items, _) => items,
            Inner::Shared(_) => unreachable!("unshared above"),
        }
    }

    /// The first write since the items were shared.
    #[cold]
    #[inline(never)]
    fn unshare(&mut self) {
        match &mut self.0 {
            Inner::Own(_, shared) => drop(shared.take()),
            Inner::Shared(items) => self.0 = Inner::Own(Box::from(&items[..]), OnceLock::new()),
        }
    }

    /// The shared copy the items equal, if there is one.
    fn shared(&self) -> Option<&Arc<[T]>> {
        match &self.0 {
            Inner::Own(_, shared) => shared.get(),
            Inner::Shared(items) => Some(items),
        }
    }

    /// The items as a shared copy: made once for owned items, then
    /// handed out again until they are written.
    fn share(&self) -> Arc<[T]> {
        match &self.0 {
            Inner::Own(items, shared) => Arc::clone(shared.get_or_init(|| Arc::from(&items[..]))),
            Inner::Shared(items) => Arc::clone(items),
        }
    }

    /// Whether the two blocks hold the same shared copy, and so the same
    /// items.
    #[must_use]
    pub fn shares_with(&self, other: &CowBlock<T>) -> bool {
        matches!((self.shared(), other.shared()), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// The block's identity: that of its shared copy, if it has one, so
    /// a holder and its clone yield the same identity for a block they
    /// share, and the first write to a shared block gives it a new one.
    #[must_use]
    pub fn identity(&self) -> usize {
        self.shared().map_or(self.items(), |items| items).as_ptr() as usize
    }
}

impl<T: Clone> Clone for CowBlock<T> {
    fn clone(&self) -> CowBlock<T> {
        CowBlock(Inner::Shared(self.share()))
    }

    /// Rewinds to `source`: kept if it already holds `source`'s shared
    /// copy; owned items of the same length take a copy of it in place;
    /// otherwise it shares it.
    fn clone_from(&mut self, source: &CowBlock<T>) {
        let items = source.share();
        if self.shared().is_some_and(|ours| Arc::ptr_eq(ours, &items)) {
            return;
        }
        match &mut self.0 {
            Inner::Own(own, shared) if own.len() == items.len() => {
                own.clone_from_slice(&items);
                *shared = OnceLock::from(items);
            }
            _ => self.0 = Inner::Shared(items),
        }
    }
}
