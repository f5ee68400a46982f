//! Modules: the top-level container of globals and functions.

use serde::{Deserialize, Serialize};

use crate::function::{Function, FunctionId};
use crate::global::{Global, GlobalId};
use crate::verify::{verify_module, VerifyError};

/// A whole program: globals plus functions.  Execution starts at the function
/// named `main` unless the VM is told otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Module name (used in reports).
    pub name: String,
    /// Global arrays.
    pub globals: Vec<Global>,
    /// Functions.
    pub functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            globals: Vec::new(),
            functions: Vec::new(),
        }
    }

    /// Add a global; returns its id.
    pub fn add_global(&mut self, global: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(global);
        id
    }

    /// Add a function; returns its id.
    pub fn add_function(&mut self, function: Function) -> FunctionId {
        let id = FunctionId(self.functions.len() as u32);
        self.functions.push(function);
        id
    }

    /// Look up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<(FunctionId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FunctionId(i as u32), f))
    }

    /// The function behind an id.
    pub fn function(&self, id: FunctionId) -> &Function {
        &self.functions[id.index()]
    }

    /// The global behind an id.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Total number of static instructions across all functions.
    pub fn num_insts(&self) -> usize {
        self.functions.iter().map(|f| f.num_insts()).sum()
    }

    /// Structural validation (see [`crate::verify`]).
    pub fn verify(&self) -> Result<(), VerifyError> {
        verify_module(self)
    }

    /// Render the whole module as text.
    pub fn to_text(&self) -> String {
        let mut s = format!("; module {}\n", self.name);
        for (i, g) in self.globals.iter().enumerate() {
            s.push_str(&format!(
                "@g{} = global [{} x i64] ; {}\n",
                i, g.size, g.name
            ));
        }
        for f in &self.functions {
            s.push('\n');
            s.push_str(&f.to_text());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_works() {
        let mut m = Module::new("m");
        let g = m.add_global(Global::zeroed_f64("u", 4));
        let f = m.add_function(Function::new("main", 0));
        assert_eq!(m.global(g).name, "u");
        assert_eq!(m.function_by_name("main").unwrap().0, f);
        assert!(m.function_by_name("missing").is_none());
        assert!(m.to_text().contains("module m"));
    }
}
