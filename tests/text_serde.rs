//! Text cells through the vendored serde stand-in. `Value::Text` holds an
//! `Arc<str>`; its JSON is what it was when the cell held a `String`, so
//! saved tables and artifact bundles (`guava_bundle.json`) keep their
//! format. The expected documents below were written by the `String`
//! representation; the >1 KiB text is spliced into them with `format!`.

use guava::prelude::*;
use guava_multiclass::classifier::Rule;
use guava_relational::value::DataType;

const NON_ASCII: &str = "Raucher — ≥ 20/Tag, \"schwer\" ✓";

fn long() -> String {
    "ab".repeat(600)
}

fn texts() -> Vec<String> {
    vec![String::new(), NON_ASCII.to_owned(), long()]
}

#[test]
fn bare_text_values_keep_their_json() {
    let long = long();
    let want = [
        r#"{"Text":""}"#.to_owned(),
        r#"{"Text":"Raucher — ≥ 20/Tag, \"schwer\" ✓"}"#.to_owned(),
        format!(r#"{{"Text":"{long}"}}"#),
    ];
    for (t, want) in texts().into_iter().zip(want) {
        let v = Value::text(t);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, want);
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.as_text(), v.as_text());
    }
}

#[test]
fn tables_of_text_keep_their_json() {
    let schema = Schema::new(
        "notes",
        vec![
            Column::required("id", DataType::Int),
            Column::new("note", DataType::Text),
        ],
    )
    .unwrap();
    let rows: Vec<Row> = texts()
        .into_iter()
        .enumerate()
        .map(|(i, t)| vec![Value::Int(i as i64), Value::text(t)])
        .chain([vec![Value::Int(3), Value::Null]])
        .collect();
    let table = Table::from_rows(schema, rows).unwrap();
    let json = serde_json::to_string(&table).unwrap();
    let long = long();
    assert_eq!(
        json,
        format!(
            r#"{{"schema":{{"name":"notes","columns":[{{"name":"id","data_type":"Int","nullable":false}},{{"name":"note","data_type":"Text","nullable":true}}],"primary_key":[]}},"rows":[[{{"Int":0}},{{"Text":""}}],[{{"Int":1}},{{"Text":"Raucher — ≥ 20/Tag, \"schwer\" ✓"}}],[{{"Int":2}},{{"Text":"{long}"}}],[{{"Int":3}},"Null"]]}}"#
        )
    );
    let back: Table = serde_json::from_str(&json).unwrap();
    assert_eq!(back, table);
}

#[test]
fn artifact_bundles_of_text_keep_their_json() {
    let rules = texts()
        .into_iter()
        .map(|t| Rule::new(Expr::lit(Value::text(t)), Expr::lit(true)))
        .collect();
    let classifier = Classifier::new(
        "Label",
        "cori",
        "",
        Target::Entity {
            entity: "Procedure".into(),
        },
        rules,
    );
    let bundle = ArtifactBundle::new(
        StudySchema::new("s", EntityDef::new("Procedure")),
        vec![classifier],
        Vec::new(),
        Vec::new(),
    );
    let json = bundle.to_json().unwrap();
    let long = long();
    assert_eq!(
        json,
        format!(
            r#"{{
  "version": 1,
  "study_schema": {{
    "name": "s",
    "root": {{
      "name": "Procedure",
      "attributes": [],
      "children": []
    }},
    "provenance": {{
      "annotations": []
    }}
  }},
  "classifiers": [
    {{
      "name": "Label",
      "contributor": "cori",
      "note": "",
      "target": {{
        "Entity": {{
          "entity": "Procedure"
        }}
      }},
      "rules": [
        {{
          "output": {{
            "Lit": {{
              "Text": ""
            }}
          }},
          "guard": {{
            "Lit": {{
              "Bool": true
            }}
          }}
        }},
        {{
          "output": {{
            "Lit": {{
              "Text": "Raucher — ≥ 20/Tag, \"schwer\" ✓"
            }}
          }},
          "guard": {{
            "Lit": {{
              "Bool": true
            }}
          }}
        }},
        {{
          "output": {{
            "Lit": {{
              "Text": "{long}"
            }}
          }},
          "guard": {{
            "Lit": {{
              "Bool": true
            }}
          }}
        }}
      ],
      "provenance": {{
        "annotations": []
      }}
    }}
  ],
  "studies": [],
  "bindings": []
}}"#
        )
    );
    assert_eq!(ArtifactBundle::from_json(&json).unwrap(), bundle);
}
