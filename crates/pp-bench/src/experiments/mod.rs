//! One module per table or figure of the paper's evaluation; each exports
//! the `Experiment` the registry lists.

pub(crate) mod fig09;
pub(crate) mod fig10;
pub(crate) mod fig15;
pub(crate) mod table04;
pub(crate) mod table05;
pub(crate) mod table06;
pub(crate) mod table08;
pub(crate) mod table09;
pub(crate) mod table10;
pub(crate) mod table12;
pub(crate) mod table13;
