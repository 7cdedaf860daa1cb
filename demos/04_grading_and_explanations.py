"""
Training a grader and explaining its output
===========================================

The grader is a small fully-connected network trained from scratch on
feature vectors: a shared trunk with two softmax heads, one for the DR
grade (0-4) and one for the DME grade (0-2).  Predictions come with a
plain-language sentence that can be parsed back, losslessly, into the
feature vector that produced it.
"""

import tempfile
from pathlib import Path

from retsym import (
    FeatureMode,
    SynthSpec,
    TrainConfig,
    evaluate,
    extract_dataset,
    features_for_mode,
    format_report,
    generate,
    load_model,
    parse,
    predict_batch,
    render,
    save_model,
    train,
)

with tempfile.TemporaryDirectory() as td:
    # 1. a labeled synthetic dataset (masks + manifest with known grades)
    manifest = generate(SynthSpec(n_images=800, width=256, height=256, seed=6), td)
    images = extract_dataset(manifest)
    vectors = features_for_mode(images, FeatureMode.EXTENDED)
    labels = [img.label for img in images]

    # 2. train on the first 750, hold out the last 50
    dataset = list(zip(vectors, labels))
    config = TrainConfig(max_epochs=60)
    model = train(dataset[:750], config)
    meta = model.training_meta
    print(f"trained for {meta['epochs_run']} epochs "
          f"(best validation loss {meta['best_val_loss']:.4f} at epoch {meta['best_epoch']})")

    # 3. score the held-out images
    held_out = dataset[750:]
    report = evaluate([y for _, y in held_out], predict_batch(model, [fv for fv, _ in held_out]))
    print()
    print(format_report(report, title="held-out 50 images"))

    # 4. models serialize to JSON and reload exactly
    model_path = Path(td) / "model.json"
    save_model(model, model_path)
    model = load_model(model_path)
    print(f"\nmodel round-tripped through {model_path.name}")

    # 5. every prediction can be explained in one sentence...
    image = images[750]
    fv = vectors[750]
    (pair,) = predict_batch(model, [fv])
    explanation = render(image.image_id, fv, pair)
    print(f"\n{explanation.rendered}")

    # ...and the sentence is exactly invertible: parsing recovers the id and
    # the full feature vector, so nothing the model saw is hidden from the
    # reader.
    parsed_id, grade_text, parsed_fv = parse(explanation.rendered)
    assert parsed_id == image.image_id and parsed_fv == fv
    print(f"parsed back: id={parsed_id!r}, grade={grade_text!r}, vector intact")
